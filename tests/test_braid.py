import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid import braid
from kleinbraid.braid import (
    B_IDENTITY,
    H_IMAGES,
    H_INV_IMAGES,
    LSIGMA_IMAGES,
    MAX_TWIST,
    SIGMA_SQ,
    BraidElt,
    apply_images,
    bmul,
    decompose,
    forced_word_exponents,
    formula_ablsiga,
    formula_blsiga,
    gmap,
    lsigma,
    p1,
    parse_braid,
    rho,
    theta,
)
from kleinbraid.cli import main
from kleinbraid.kleinpi import K_IDENTITY, KleinElt, eps
from kleinbraid.words import BIG_B, MAX_RUNS, ONE, U, V, Word, parse_word

from common import PROFILE, braids, runs, twists, words


def test_theta_examples():
    assert theta(K_IDENTITY, parse_word("u v^-2 u")) == parse_word("u v^-2 u")
    assert theta(KleinElt(1, 0), U) == BIG_B * U * BIG_B.inv()
    assert theta(KleinElt(2, 1), BIG_B) == BIG_B.inv()


@PROFILE
@given(twists, twists, words)
def test_theta_is_action(t, t2, w):
    assert theta(K_IDENTITY, w) == w
    assert theta(t * t2, w) == theta(t, theta(t2, w))


@PROFILE
@given(twists, words, words)
def test_theta_is_automorphism(t, x, y):
    assert theta(t, x * y) == theta(t, x) * theta(t, y)
    assert theta(t, x.inv()) == theta(t, x).inv()
    assert theta(t, ONE) == ONE
    assert theta(t, BIG_B) == BIG_B ** eps(t.n)


def test_bmul_examples():
    w = parse_word("v u^-1 v")
    assert bmul(BraidElt(w), BraidElt(ONE, KleinElt(2, 5))) == BraidElt(w, KleinElt(2, 5))
    centre = BraidElt(ONE, KleinElt(0, 2))
    u_braid = BraidElt(U)
    assert bmul(centre, u_braid) == bmul(u_braid, centre)
    a = BraidElt(U * V, KleinElt(1, 1))
    assert bmul(a, a.inv()) == B_IDENTITY


def test_binv_examples():
    assert BraidElt(ONE, KleinElt(3, -2)).inv() == BraidElt(ONE, KleinElt(3, -2).inv())
    assert BraidElt(U).inv() == BraidElt(U.inv())
    a = BraidElt(BIG_B, KleinElt(0, 1))
    assert bmul(a, a.inv()) == B_IDENTITY
    assert bmul(a.inv(), a) == B_IDENTITY


@PROFILE
@given(braids, braids, braids)
def test_bmul_associative(a, b, c):
    # the group laws
    assert bmul(bmul(a, b), c) == bmul(a, bmul(b, c))
    assert bmul(a, B_IDENTITY) == a == bmul(B_IDENTITY, a)
    assert bmul(a, a.inv()) == B_IDENTITY == bmul(a.inv(), a)


def test_lsigma_table():
    assert lsigma(BraidElt(BIG_B)) == BraidElt(BIG_B)
    assert lsigma(BraidElt(U)) == BraidElt((BIG_B * U.inv()) * BIG_B.inv(), KleinElt(1, 0))
    assert lsigma(BraidElt(ONE, KleinElt(0, 1))) == BraidElt(BIG_B, KleinElt(0, 1))
    assert lsigma(BraidElt(ONE, KleinElt(5, 0))) == BraidElt(ONE, KleinElt(5, 0))
    for s in range(-4, 5):
        got = lsigma(BraidElt(V ** s))
        want = BraidElt((U * V) ** (-s) * (U * BIG_B) ** (s % 2), KleinElt(0, s))
        assert got == want


@PROFILE
@given(braids, braids)
def test_lsigma_endomorphism_and_square(a, b):
    assert lsigma(bmul(a, b)) == bmul(lsigma(a), lsigma(b))
    assert lsigma(B_IDENTITY) == B_IDENTITY
    assert lsigma(lsigma(a)) == bmul(bmul(SIGMA_SQ, a), SIGMA_SQ.inv())


@PROFILE
@given(words, twists)
def test_lsigma_factors_through_rho(w, t):
    # the witness search caches rho(w) per word and multiplies by
    # theta(gmap(w))(w_L), where (w_L; t) = lsigma((1; t))
    tail = lsigma(BraidElt(ONE, t))
    assert tail.twist == t
    full = lsigma(BraidElt(w, t))
    assert full == BraidElt(rho(w), gmap(w)) * tail
    assert full.word == rho(w) * theta(gmap(w), tail.word)


GENERATORS = braid._GENERATORS


def lsigma_generator_failures():
    """The exact checks of LSIGMA_IMAGES on the generators u, v, x, y.

    Images that respect the defining relations define an endomorphism (von
    Dyck), so lsigma∘lsigma and conjugation by SIGMA_SQ, both
    endomorphisms, agree everywhere once they agree on the generators; that
    makes lsigma an automorphism, on every braid and not only on samples."""
    images = braid.LSIGMA_IMAGES
    fails = braid._relation_failures("lsigma", images)
    for g in GENERATORS:
        if lsigma(lsigma(g)) != SIGMA_SQ * g * SIGMA_SQ.inv():
            fails.append(f"lsigma∘lsigma = conjugation by SIGMA_SQ fails at {g}")
    for g, img in zip(GENERATORS[:2], images[:2]):
        if img.twist != gmap(g.word):
            fails.append(f"twist of lsigma({g}) is {img.twist}, not gmap = {gmap(g.word)}")
    return fails


def test_lsigma_generator_check():
    assert lsigma_generator_failures() == []


_u = BraidElt(U)

# (images of u, v, x, y, a check that must report them broken)
WRONG_LSIGMA_IMAGES = [
    # y ↦ y breaks the twisting relations of y
    (LSIGMA_IMAGES[:3] + (GENERATORS[3],), r"breaks t g t\^-1 = theta\(t\)\(g\) at t = \(1 ; 0, 1\)"),
    # x ↦ (v; 1, 0) breaks the relation between x and y
    (LSIGMA_IMAGES[:2] + (BraidElt(V, KleinElt(1, 0)),) + LSIGMA_IMAGES[3:], r"breaks y x y\^-1 = x\^-1"),
    # lsigma followed by conjugation by u: an automorphism, but its square
    # is not conjugation by SIGMA_SQ
    (tuple(_u * g * _u.inv() for g in LSIGMA_IMAGES), r"lsigma∘lsigma = conjugation by SIGMA_SQ fails"),
    # the identity: an automorphism off the twists gmap gives
    (GENERATORS, r"twist of lsigma\(\(u ; 0, 0\)\) is \(0,0\)"),
]


@pytest.mark.parametrize("images, law", WRONG_LSIGMA_IMAGES)
def test_wrong_lsigma_image_is_caught(monkeypatch, images, law):
    monkeypatch.setattr(braid, "LSIGMA_IMAGES", images)
    assert any(re.search(law, fail) for fail in lsigma_generator_failures())


def test_gmap_examples():
    assert gmap(BIG_B) == K_IDENTITY
    assert gmap(ONE) == K_IDENTITY
    assert gmap(parse_word("u^3")) == KleinElt(3, 0)


@PROFILE
@given(words, words)
def test_gmap_is_a_homomorphism(x, y):
    assert gmap(x * y) == gmap(x) * gmap(y)


def _no_powers(monkeypatch):
    def no_power(self, n):
        raise AssertionError("a word power was built")

    monkeypatch.setattr(Word, "__pow__", no_power)


def test_theta_twist_budget(monkeypatch):
    _no_powers(monkeypatch)
    for m in (MAX_TWIST + 1, -MAX_TWIST - 1, 3_000_000):
        with pytest.raises(ValueError, match="budget"):
            theta(KleinElt(m, 1), U * V)
    # n is read only through its parity
    assert theta(KleinElt(0, 10**12), U * V) == U * V


def test_cli_rejects_twist_over_budget(capsys, monkeypatch):
    _no_powers(monkeypatch)
    assert main(["braid-eval", "(u;3000000,1) (v;0,0)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "budget" in err


def test_theta_v_run_budget(monkeypatch):
    # φ(v)^k has 2k runs under theta(1, 0) (v u^-2), 2k + 1 under
    # theta(0, 1) (u v u), and 3 under theta(1, 1) (u v u^-1); the budget
    # counts them reduced, so images of up to MAX_RUNS runs are written
    monkeypatch.setattr(braid, "MAX_RUNS", 30)
    for t, k in ((KleinElt(1, 0), 15), (KleinElt(0, 1), 14), (KleinElt(1, 1), 10**6)):
        for w in (V ** k, V ** -k):
            assert theta(t, w) == theta(t, V) ** (w.runs[0][1])
    for t, k in ((KleinElt(1, 0), 16), (KleinElt(0, 1), 15)):
        for w in (V ** k, V ** -k, U * V ** k, V ** 2 * U * V ** -k):
            with pytest.raises(ValueError, match="budget of 30 runs"):
                theta(t, w)
    # (v u^-1)^10 under theta(1, 1) is (u v)^10, 20 runs, though its pieces
    # u v u^-1 and u would make 40 runs unjoined
    w = (V * U.inv()) ** 10
    assert len(w.runs) == 20 and theta(KleinElt(1, 1), w) == theta(KleinElt(1, 1), V * U.inv()) ** 10


def test_cli_rejects_v_run_over_budget(capsys, monkeypatch):
    # φ(v^1000000) under theta(0, 1) would have 2,000,001 runs; under
    # theta(1, 1) it is u v^1000000 u^-1
    assert main(["braid-eval", "(1;1,1) (v^1000000;0,0)"]) == 0
    assert capsys.readouterr().out == "(u v^1000000 u^-1 ; 1, 1)\n"
    power = Word.__pow__

    def small_power(self, n):
        assert abs(n) < 1000, "a power of the image of v was built"
        return power(self, n)

    def no_word(runs):
        raise AssertionError("the image of the word was built")

    monkeypatch.setattr(Word, "__pow__", small_power)
    monkeypatch.setattr(braid, "_from_reduced", no_word)
    assert main(["braid-eval", "(1;0,1) (v^1000000;0,0)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"budget of {braid.MAX_RUNS} runs" in err


def _no_products(monkeypatch):
    def no_product(self, other):
        raise AssertionError("a braid product was built")

    monkeypatch.setattr(BraidElt, "__mul__", no_product)


def _no_pieces(monkeypatch):
    _no_products(monkeypatch)

    def no_piece(t, w, runs):
        raise AssertionError("a piece of the image was built")

    monkeypatch.setattr(braid, "_phi", no_piece)


def product_of_powers(images, a):
    """The reference for apply_images: one braid product per run of a's
    word, each copying the image so far, then image(x)^m · image(y)^n."""
    img_u, img_v, img_x, img_y = images
    out = B_IDENTITY
    for g, k in a.word.runs:
        out = out * (img_u if g == "u" else img_v) ** k
    return out * img_x ** a.twist.m * img_y ** a.twist.n


IMAGE_SETS = {"lsigma": LSIGMA_IMAGES, "H": H_IMAGES, "H^-1": H_INV_IMAGES}
wide_twists = st.builds(KleinElt, st.integers(-50, 50), st.integers(-50, 50))


@PROFILE
@given(st.sampled_from(sorted(IMAGE_SETS)), runs, wide_twists)
def test_apply_images_matches_the_product_of_powers(name, rs, t):
    a = BraidElt(Word(tuple(rs)), t)
    assert apply_images(IMAGE_SETS[name], a) == product_of_powers(IMAGE_SETS[name], a)


def test_runs_of_trivial_twist_are_written_as_one_power():
    # H and H^-1 send u and v to factors of trivial twist, so each run of a
    # word is one word power φ_t(w_f)^|k|; a power of one run counts as one
    # run written, so u^1000001 passes the budget of MAX_RUNS runs
    cases = [
        BraidElt(U ** (MAX_RUNS + 1), KleinElt(3, 1)),
        BraidElt(V ** -5000 * U ** 7 * V ** 3001, KleinElt(-2, 3)),
        BraidElt(U ** 4 * V ** 2 * U ** -9 * V ** -1, KleinElt(5, 0)),
    ]
    for images in (H_IMAGES, H_INV_IMAGES):
        for a in cases:
            assert apply_images(images, a) == product_of_powers(images, a)
    # a factor of more runs still counts |k| times its runs: v ↦ v u^-1
    # writes 3 runs at an even prefix twist
    v_exp = MAX_RUNS // 3 + 1
    with pytest.raises(ValueError, match=rf"image of v\^{v_exp} exceeds the budget of {MAX_RUNS}"):
        apply_images(H_IMAGES, BraidElt(V ** v_exp))


def _tree_product(factors):
    """The braid product of the factors, multiplied pairwise level by level
    so that no product copies more than half of the result."""
    while len(factors) > 1:
        factors = [bmul(*factors[i : i + 2]) if i + 1 < len(factors) else factors[i]
                   for i in range(0, len(factors), 2)]
    return factors[0]


def _lsigma_run(g, k):
    # the closed forms of lsigma on runs (module docstring of braid)
    if g == "u":
        return BraidElt((BIG_B * U.inv()) ** k * BIG_B ** -k, KleinElt(k, 0))
    return BraidElt((U * V) ** -k * (U * BIG_B) ** (k % 2), KleinElt(0, k))


def test_lsigma_of_a_long_word_is_the_product_over_its_runs():
    # (u v^2)^2000 has 6000 letters and 4000 runs; lsigma writes it in one
    # pass, where product_of_powers copies the image so far once per run
    w = (U * V ** 2) ** 2000
    want = _tree_product([_lsigma_run(g, k) for g, k in w.runs])
    assert lsigma(BraidElt(w)) == want
    assert lsigma(BraidElt(w, KleinElt(3, 1))) == want * lsigma(BraidElt(ONE, KleinElt(3, 1)))


def test_factor_counts_bound_the_runs_written(monkeypatch):
    # each factor (w_f; s) at the prefix twist t joins φ_t(w_f) and the
    # step B^(c(t·s) - c(t)); _factor counts those runs, before any
    # cancellation, from the parity of t alone
    joined = []
    join = braid._join

    def counting_join(runs, piece):
        joined.append(len(piece))
        join(runs, piece)

    monkeypatch.setattr(braid, "_join", counting_join)
    for images in IMAGE_SETS.values():
        for image in images[:2]:
            for sign in (1, -1):
                f, per_parity = braid._factor(image, sign)
                assert f == (image if sign > 0 else image.inv())
                for t in (KleinElt(m, n) for m in range(-3, 4) for n in range(-2, 3)):
                    count, step = per_parity[t.n % 2]
                    joined.clear()
                    out = []
                    braid._phi(t, f.word, out)
                    braid._join(out, step)
                    assert sum(joined) <= count
                    assert Word(step) == BIG_B ** (braid._conj(t * f.twist) - braid._conj(t))


def test_lsigma_run_budget(monkeypatch):
    # long words and large exponents are written
    for w in ((U * V ** 2) ** 667, BIG_B ** 500 * U, U ** 3000, (U ** 1000 * V ** 2) ** 6):
        assert lsigma(BraidElt(w)) == _tree_product([_lsigma_run(g, k) for g, k in w.runs])
    # a u-factor of lsigma writes 17 runs: 5 u-runs and 4 v-runs of
    # B u^-1 B^-1 under φ, then the step B, and the prefix twist stays even.
    # The budget counts them before cancellation, so lsigma(u^11), a word
    # of 49 runs, is refused at a budget of 170 runs.
    assert len(lsigma(BraidElt(U ** 11)).word.runs) == 49
    monkeypatch.setattr(braid, "MAX_RUNS", 170)
    assert lsigma(BraidElt(U ** 10)) == _lsigma_run("u", 10)
    # v-factors alternate the parity of the prefix twist: 12 runs at even
    # n and 15 at odd n, so v^3 writes 39 runs and v^-3 42
    monkeypatch.setattr(braid, "MAX_RUNS", 39)
    assert lsigma(BraidElt(V ** 3)) == _lsigma_run("v", 3)
    # the count is cumulative over the runs of the word
    with pytest.raises(ValueError, match=r"image of v\^3 exceeds the budget of 39 runs written"):
        lsigma(BraidElt(U * V ** 3))
    # and a run is refused before its first piece is built
    _no_pieces(monkeypatch)
    for w in (U ** 11, V ** -3, V ** 10**6):
        with pytest.raises(ValueError, match=r"budget of 39 runs written"):
            lsigma(BraidElt(w))


def test_lsigma_twist_budget(monkeypatch):
    # the error names the given m, not a power of the image of x on the way
    assert lsigma(BraidElt(ONE, KleinElt(MAX_TWIST, 1))).twist == KleinElt(MAX_TWIST, 1)
    _no_products(monkeypatch)
    for m in (MAX_TWIST + 1, -3000000):
        with pytest.raises(ValueError, match=f"twist m = {m} exceeds the budget"):
            lsigma(BraidElt(U, KleinElt(m, 0)))


def test_cli_rejects_lsigma_over_budget(capsys, monkeypatch):
    # lsigma of v^1000000 would write about 13,500,000 runs; it is refused
    # from the count before any piece is built
    _no_pieces(monkeypatch)
    assert main(["braid-eval", "lsigma(v^1000000;0,0)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"budget of {MAX_RUNS} runs written" in err


def test_rho_examples():
    assert rho(BIG_B) == BIG_B
    assert rho(ONE) == ONE
    assert rho(V) == (U * V).inv() * (U * BIG_B)


def test_projections():
    a = BraidElt(BIG_B, KleinElt(2, 3))
    assert p1(a) == KleinElt(2, 3)
    assert a.word == BIG_B
    x = BraidElt(U, KleinElt(1, 0))
    y = BraidElt(V, KleinElt(0, 1))
    assert p1(bmul(x, y)) == p1(x) * p1(y)


@PROFILE
@given(braids)
def test_p1_lsigma_second_coordinate(a):
    assert p1(lsigma(a)).n == p1(a).n + gmap(a.word).n


def test_decompose_examples():
    r, s, x = decompose(BIG_B)
    assert (r, s, x) == (0, 0, BIG_B)
    r, s, x = decompose(parse_word("u^2 v"))
    assert (r, s, x) == (2, 1, ONE)
    r, s, x = decompose(parse_word("v u"))
    assert (r, s) == (-1, 1)
    assert x == parse_word("v^-1 u v u")


@PROFILE
@given(words)
def test_decompose_splits_off_the_kernel(w):
    r, s, x = decompose(w)
    assert gmap(w) == KleinElt(r, s)
    assert gmap(x) == K_IDENTITY
    assert U ** r * V ** s * x == w


def test_formula_blsiga():
    assert formula_blsiga(B_IDENTITY, B_IDENTITY) == B_IDENTITY
    a = BraidElt(U ** 2)
    assert formula_blsiga(a, B_IDENTITY) == bmul(B_IDENTITY, lsigma(a))
    a = BraidElt(V ** 2, KleinElt(1, 1))
    b = BraidElt(U, KleinElt(0, 2))
    assert formula_blsiga(a, b) == bmul(b, lsigma(a))


def test_formula_ablsiga():
    assert formula_ablsiga(B_IDENTITY, B_IDENTITY) == B_IDENTITY
    a = BraidElt(U ** -2, KleinElt(1, 0))
    b = BraidElt(U ** -1)
    assert formula_ablsiga(a, b) == b


@PROFILE
@given(braids, braids)
def test_closed_formulas_match_the_engine(a, b):
    assert formula_ablsiga(a, b) == bmul(bmul(a, b), lsigma(a))
    assert formula_blsiga(a, b) == bmul(b, lsigma(a))


@PROFILE
@given(braids, braids)
def test_formula_ablsiga_twist(a, b):
    # second component of the closed formula, spelled out
    a1, a2, _ = decompose(a.word)
    m1, n1 = a.twist.m, a.twist.n
    m2, n2 = b.twist.m, b.twist.n
    got = p1(formula_ablsiga(a, b))
    assert got == KleinElt(
        m1 + eps(n1) * m2 + eps(n1 + n2) * (a1 + eps(a2) * m1),
        2 * n1 + n2 + a2,
    )


def test_forced_word_exponents():
    # the witness pair of the simplest even family satisfies the relation
    a = B_IDENTITY
    b = BraidElt(ONE, KleinElt(1, 0))
    assert bmul(bmul(a, b), lsigma(a)) == b
    assert forced_word_exponents(a, b) == decompose(a.word)[:2]
    # n1 = n2 = 0 collapses the formula to (-2*m1, 0)
    for m1 in range(-5, 6):
        for m2 in range(-5, 6):
            got = forced_word_exponents(
                BraidElt(ONE, KleinElt(m1, 0)), BraidElt(ONE, KleinElt(m2, 0))
            )
            assert got == (-2 * m1, 0)
    # both predictions are always even
    for m1 in range(-5, 6):
        for n1 in range(-5, 6):
            for m2 in range(-5, 6):
                for n2 in range(-5, 6):
                    a1, a2 = forced_word_exponents(
                        BraidElt(ONE, KleinElt(m1, n1)), BraidElt(ONE, KleinElt(m2, n2))
                    )
                    assert a1 % 2 == 0 and a2 % 2 == 0


def test_forced_exponents_on_witness_instances():
    # whenever the relation holds, the forced pair matches a's actual exponents
    from kleinbraid.classifier import HomClass, decide
    from kleinbraid.witness import build_witness

    for cls in [
        HomClass(1, i=0, s1=1, s2=1),
        HomClass(3, i=0, s1=0, s2=1),
        HomClass(4, r1=0, r2=2, s1=0, s2=0),
        HomClass(4, r1=2, r2=1, s1=0, s2=0),
        HomClass(4, r1=1, r2=0, s1=2, s2=1),
    ]:
        assert not decide(cls).bu
        rep = build_witness(cls)
        a1, a2, _ = decompose(rep.a.word)
        assert forced_word_exponents(rep.a, rep.b) == (a1, a2)


def test_braid_serialization():
    a = BraidElt(parse_word("u^2 v^-1"), KleinElt(-1, 4))
    assert parse_braid(str(a)) == a
    assert parse_braid("(B;0,0)") == SIGMA_SQ
    assert parse_braid("( 1 ; 2 , -3 )") == BraidElt(ONE, KleinElt(2, -3))
    with pytest.raises(ValueError):
        parse_braid("u;0,0")
