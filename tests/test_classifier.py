import random

import pytest

from kleinbraid.classifier import (
    HomClass,
    HomDescriptor,
    central_shift_equiv,
    decide,
    normalize,
    validate,
)
from kleinbraid.kleinpi import KleinElt


def conjugate_hom(c: KleinElt, h: HomDescriptor) -> HomDescriptor:
    return HomDescriptor(c * h.img10 * c.inv(), c * h.img01 * c.inv())


def brute_force_class(h: HomDescriptor, span: int = 6) -> HomClass:
    """Independent oracle: scan all conjugates and pick the listed shape."""
    reps = []
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            hc = conjugate_hom(KleinElt(a, b), h)
            (m1, n1), (m2, n2) = (hc.img10.m, hc.img10.n), (hc.img01.m, hc.img01.n)
            if n1 % 2 and n2 % 2 == 0 and m1 in (0, 1) and m2 == 0:
                reps.append(HomClass(1, i=m1, s1=(n1 - 1) // 2, s2=n2 // 2))
            elif n1 % 2 and n2 % 2 and m1 in (0, 1) and m2 == m1:
                reps.append(HomClass(2, i=m1, s1=(n1 - 1) // 2, s2=(n2 - 1) // 2))
            elif n1 % 2 == 0 and n2 % 2 and m1 == 0 and m2 in (0, 1):
                reps.append(HomClass(3, i=m2, s1=n1 // 2, s2=(n2 - 1) // 2))
            elif n1 % 2 == 0 and n2 % 2 == 0 and (m1 > 0 or (m1 == 0 and m2 >= 0)):
                reps.append(HomClass(4, r1=m1, r2=m2, s1=n1 // 2, s2=n2 // 2))
    assert reps, "no listed representative found in window"
    assert len(set(reps)) == 1, f"representative not unique: {set(reps)}"
    return reps[0]


def test_validate_examples():
    assert validate(HomDescriptor(KleinElt(1, 1), KleinElt(1, 1)))
    # a genuinely non-commuting pair under the fixed twist convention
    assert not validate(HomDescriptor(KleinElt(1, 1), KleinElt(1, 0)))
    assert validate(HomDescriptor(KleinElt(2, 0), KleinElt(5, 0)))


def test_normalize_examples():
    assert normalize(HomDescriptor(KleinElt(3, 5), KleinElt(0, 4))) == HomClass(
        1, i=1, s1=2, s2=2
    )
    assert normalize(HomDescriptor(KleinElt(0, 3), KleinElt(0, 4))) == HomClass(
        1, i=0, s1=1, s2=2
    )
    assert normalize(HomDescriptor(KleinElt(-2, 0), KleinElt(3, 2))) == HomClass(
        4, r1=2, r2=-3, s1=0, s2=1
    )


def test_normalize_rejects_non_homomorphisms():
    with pytest.raises(ValueError):
        normalize(HomDescriptor(KleinElt(1, 1), KleinElt(1, 0)))


def test_normalize_against_brute_force():
    rng = random.Random(17)
    checked = 0
    while checked < 120:
        h = HomDescriptor(
            KleinElt(rng.randint(-4, 4), rng.randint(-4, 4)),
            KleinElt(rng.randint(-4, 4), rng.randint(-4, 4)),
        )
        if not validate(h):
            continue
        checked += 1
        assert normalize(h) == brute_force_class(h)


def test_normalize_is_conjugation_invariant():
    rng = random.Random(23)
    checked = 0
    while checked < 150:
        h = HomDescriptor(
            KleinElt(rng.randint(-5, 5), rng.randint(-5, 5)),
            KleinElt(rng.randint(-5, 5), rng.randint(-5, 5)),
        )
        if not validate(h):
            continue
        checked += 1
        c = KleinElt(rng.randint(-4, 4), rng.randint(-4, 4))
        assert normalize(h) == normalize(conjugate_hom(c, h))


def test_normalized_images_realize_the_class():
    rng = random.Random(31)
    checked = 0
    while checked < 100:
        h = HomDescriptor(
            KleinElt(rng.randint(-4, 4), rng.randint(-4, 4)),
            KleinElt(rng.randint(-4, 4), rng.randint(-4, 4)),
        )
        if not validate(h):
            continue
        checked += 1
        cls = normalize(h)
        back = HomDescriptor(*cls.images())
        assert validate(back)
        assert normalize(back) == cls


def test_central_shift_examples():
    assert central_shift_equiv(
        HomClass(4, r1=1, r2=0, s1=1, s2=0), HomClass(4, r1=1, r2=0, s1=1, s2=2)
    )
    assert not central_shift_equiv(
        HomClass(4, r1=1, r2=0, s1=1, s2=0), HomClass(4, r1=1, r2=0, s1=1, s2=1)
    )
    assert central_shift_equiv(
        HomClass(1, i=0, s1=2, s2=1), HomClass(1, i=0, s1=2, s2=3)
    )
    assert not central_shift_equiv(
        HomClass(1, i=0, s1=2, s2=1), HomClass(1, i=1, s1=2, s2=1)
    )


def ref_central_shift_equiv(c: HomClass, c2: HomClass) -> bool:
    """Reference: same type and parameters apart from s2, with raw second
    coordinates of the (0,1)-images congruent mod 4."""
    if c.kind != c2.kind:
        return False
    if (c.i, c.s1, c.r1, c.r2) != (c2.i, c2.s1, c2.r1, c2.r2):
        return False
    return (c.images()[1].n - c2.images()[1].n) % 4 == 0


def test_central_shift_matches_mod4_reference():
    classes = [
        HomClass(kind, i=i, s1=s1, s2=s2)
        for kind in (1, 2, 3)
        for i in (0, 1)
        for s1 in (-1, 0, 1)
        for s2 in range(-2, 3)
    ] + [
        HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2)
        for r1 in range(0, 3)
        for r2 in range(-2, 3)
        for s1 in (-1, 0, 1)
        for s2 in range(-2, 3)
    ]
    assert len(classes) == 315
    for c in classes:
        for c2 in classes:
            assert central_shift_equiv(c, c2) == ref_central_shift_equiv(c, c2), (c, c2)


def test_decide_examples():
    assert decide(HomClass(1, i=0, s1=3, s2=0)).bu
    assert not decide(HomClass(3, i=0, s1=0, s2=1)).bu
    v = decide(HomClass(4, r1=1, r2=2, s1=0, s2=0))
    assert v.bu and v.branch == "(d)(iii)"
    assert not decide(HomClass(4, r1=1, r2=1, s1=0, s2=0)).bu
    assert not decide(HomClass(4, r1=2, r2=0, s1=3, s2=1)).bu
    v = decide(HomClass(2, i=0, s1=0, s2=0))
    assert v.bu and v.branch == "(b)"
    v = decide(HomClass(4, r1=0, r2=0, s1=2, s2=0))
    assert v.bu and v.branch == "(d)(ii)"


def test_decide_flags_diverging_literal_reading():
    v = decide(HomClass(4, r1=1, r2=2, s1=0, s2=2))
    assert v.bu and "reduced" in v.branch
    assert v.reduced.s2 == 0
    v = decide(HomClass(4, r1=1, r2=2, s1=0, s2=0))
    assert "reduced" not in v.branch


def test_decide_invariances():
    for kind in (1, 2, 3):
        for i in (0, 1):
            for s1 in range(-4, 5):
                for s2 in range(-4, 5):
                    c = HomClass(kind, i=i, s1=s1, s2=s2)
                    c2 = HomClass(kind, i=i, s1=s1, s2=s2 + 2)
                    assert central_shift_equiv(c, c2)
                    assert decide(c).bu == decide(c2).bu
    for r1 in range(0, 5):
        for r2 in range(-4, 5):
            for s1 in range(-4, 5):
                for s2 in range(-4, 5):
                    c = HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2)
                    assert decide(c).bu == decide(
                        HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2 + 2)
                    ).bu
                    if r1 == 0:
                        assert decide(c).bu == decide(
                            HomClass(4, r1=0, r2=-r2, s1=s1, s2=s2)
                        ).bu


def test_homclass_validation():
    with pytest.raises(ValueError):
        HomClass(5)
    with pytest.raises(ValueError):
        HomClass(1, i=2)
    with pytest.raises(ValueError):
        HomClass(4, r1=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=1, r1=7),
        dict(kind=2, r2=-1),
        dict(kind=3, i=1, r1=1, r2=2),
        dict(kind=4, i=1, r1=1),
    ],
)
def test_homclass_rejects_fields_its_type_does_not_use(kwargs):
    with pytest.raises(ValueError):
        HomClass(**kwargs)
