import re

import pytest
from hypothesis import given

from kleinbraid import braid
from kleinbraid.braid import (
    B_IDENTITY,
    LSIGMA_IMAGES,
    MAX_LSIGMA_LETTERS,
    MAX_TWIST,
    SIGMA_SQ,
    BraidElt,
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
from kleinbraid.words import BIG_B, ONE, U, V, Word, parse_word

from common import PROFILE, braids, twists, words


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


def test_lsigma_letter_budget(monkeypatch):
    # B^500 has 2000 letters and (u v^2)^667 2001; the words' twists are free
    at_budget = BraidElt(BIG_B ** 500, KleinElt(7, 3))
    assert at_budget.word.letter_length() == MAX_LSIGMA_LETTERS
    assert lsigma(at_budget).twist == KleinElt(7, 3)
    _no_products(monkeypatch)
    for w in ((U * V ** 2) ** 667, BIG_B ** 500 * U, U ** 3000, (U ** 1000 * V ** 2) ** 60):
        with pytest.raises(ValueError, match=f"budget of {MAX_LSIGMA_LETTERS} letters"):
            lsigma(BraidElt(w))
    monkeypatch.setattr(braid, "MAX_LSIGMA_LETTERS", 3)
    with pytest.raises(ValueError, match="word of 4 letters"):
        rho(BIG_B)


def test_lsigma_twist_budget(monkeypatch):
    # the error names the given m, not a power of the image of x on the way
    assert lsigma(BraidElt(ONE, KleinElt(MAX_TWIST, 1))).twist == KleinElt(MAX_TWIST, 1)
    _no_products(monkeypatch)
    for m in (MAX_TWIST + 1, -3000000):
        with pytest.raises(ValueError, match=f"twist m = {m} exceeds the budget"):
            lsigma(BraidElt(U, KleinElt(m, 0)))


def test_cli_rejects_lsigma_over_budget(capsys, monkeypatch):
    _no_products(monkeypatch)
    assert main(["braid-eval", "lsigma(B^100000;0,0)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"budget of {MAX_LSIGMA_LETTERS} letters" in err


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
