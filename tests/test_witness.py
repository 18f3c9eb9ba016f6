from dataclasses import replace

import pytest

from kleinbraid.braid import B_IDENTITY, H_IMAGES, BraidElt, apply_images, bmul, lsigma, p1
from kleinbraid.classifier import HomClass, decide
from kleinbraid.kleinpi import KleinElt
from kleinbraid.witness import (
    SearchBounds,
    WitnessVerificationError,
    build_witness,
    search_witness,
    second_image_of_pair,
    verify_pair,
)
from kleinbraid.words import ONE, U, V, parse_word


def test_verify_pair_even_family():
    a = B_IDENTITY
    b = BraidElt(ONE, KleinElt(1, 0))
    report = verify_pair(a, b, HomClass(4, r1=0, r2=2, s1=0, s2=0))
    assert report.checks.all_ok


def test_verify_pair_mixed_family():
    # b = (v; 0, z) realizes the second image (0, 2z+1)
    report = verify_pair(
        B_IDENTITY, BraidElt(V, KleinElt(0, 1)), HomClass(3, i=0, s1=0, s2=1)
    )
    assert report.checks.all_ok
    report = verify_pair(
        B_IDENTITY, BraidElt(V, KleinElt(0, 0)), HomClass(3, i=0, s1=0, s2=0)
    )
    assert report.checks.all_ok


def test_verify_pair_failure_reports_conditions():
    cls = HomClass(4, r1=1, r2=0, s1=0, s2=1)  # image of (1,0) is (1,0)
    with pytest.raises(WitnessVerificationError) as err:
        verify_pair(BraidElt(U), B_IDENTITY, cls)
    assert err.value.failures
    assert any("(i)" in f or "(ii)" in f for f in err.value.failures)


def test_second_image_shortcut():
    for b in [
        BraidElt(V, KleinElt(0, 1)),
        BraidElt(U ** -1, KleinElt(2, -1)),
        BraidElt(parse_word("u v^-2"), KleinElt(-1, 2)),
    ]:
        assert second_image_of_pair(b) == p1(bmul(b, lsigma(b)))


def test_build_witness_examples():
    report = build_witness(HomClass(1, i=0, s1=1, s2=1))
    assert report.source == "constructed"
    report = build_witness(HomClass(4, r1=3, r2=1, s1=0, s2=0))
    assert report.a == BraidElt(U ** -2, KleinElt(1, 0)) ** 3
    report = build_witness(HomClass(4, r1=2, r2=0, s1=1, s2=1))
    assert report.checks.all_ok


def test_build_witness_rejects_property_classes():
    with pytest.raises(ValueError):
        build_witness(HomClass(2, i=0, s1=0, s2=0))
    with pytest.raises(ValueError):
        build_witness(HomClass(4, r1=1, r2=2, s1=0, s2=0))


def test_build_witness_transports_i1_classes():
    for cls in (HomClass(1, i=1, s1=0, s2=1), HomClass(3, i=1, s1=0, s2=0)):
        partner = build_witness(replace(cls, i=0))
        report = build_witness(cls)
        assert report.a == apply_images(H_IMAGES, partner.a)
        assert report.b == apply_images(H_IMAGES, partner.b)
        assert report.source == "constructed" and report.checks.all_ok


def test_build_witness_grid():
    count = 0
    for s1 in range(-3, 4):
        for s2 in range(-3, 4):
            for kind in (1, 3):
                cls = HomClass(kind, i=0, s1=s1, s2=s2)
                if not decide(cls).bu:
                    assert build_witness(cls).checks.all_ok
                    count += 1
    for r1 in range(0, 4):
        for r2 in range(-3, 4):
            for s1 in range(-3, 4):
                for s2 in range(-3, 4):
                    cls = HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2)
                    if not decide(cls).bu:
                        assert build_witness(cls).checks.all_ok
                        count += 1
    assert count == 300


def test_shifted_witnesses():
    for k in range(-2, 3):
        cls = HomClass(3, i=0, s1=0, s2=1 + 2 * k)
        report = build_witness(cls)
        assert report.checks.all_ok
        assert report.source == ("constructed" if k == 0 else "shifted")


def test_search_finds_constructed_pairs():
    res = search_witness(HomClass(4, r1=0, r2=2, s1=0, s2=0))
    assert res.found and res.report.source == "searched"
    res = search_witness(HomClass(3, i=0, s1=0, s2=1))
    assert res.found
    assert (res.report.a, res.report.b) == (B_IDENTITY, BraidElt(V, KleinElt(0, 1)))


def test_search_not_found_for_property_classes():
    res = search_witness(HomClass(2, i=0, s1=0, s2=0), SearchBounds(4, 2))
    assert not res.found
    assert res.examined > 0
    res = search_witness(HomClass(1, i=0, s1=0, s2=0), SearchBounds(4, 2))
    assert not res.found


def test_search_is_deterministic():
    cls = HomClass(4, r1=1, r2=1, s1=0, s2=0)
    first = search_witness(cls)
    second = search_witness(cls)
    assert first.found
    assert (first.report.a, first.report.b) == (second.report.a, second.report.b)


def test_search_covers_uncovered_families():
    # pairs found by the search oracle for i=1 classes, frozen as fixtures
    res = search_witness(HomClass(1, i=1, s1=0, s2=1))
    assert res.found
    assert (res.report.a, res.report.b) == (
        BraidElt(parse_word("u v^-2 u^-1"), KleinElt(1, 1)),
        BraidElt(ONE, KleinElt(1, 1)),
    )
    res = search_witness(HomClass(3, i=1, s1=0, s2=0))
    assert res.found
    assert (res.report.a, res.report.b) == (
        B_IDENTITY,
        BraidElt(parse_word("u v"), KleinElt(0, 0)),
    )


def test_out_of_bounds_class_is_not_searched():
    res = search_witness(HomClass(1, i=0, s1=3, s2=1), SearchBounds(4, 2))
    assert not res.found and res.examined == 0
