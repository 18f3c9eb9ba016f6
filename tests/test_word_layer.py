"""The linear-time word layer against the quadratic definitions it replaced.

The reference functions below are the straightforward definitions: a
product reduces the whole concatenation, a power is a loop of products,
and theta substitutes the image of each generator letter by letter and
reduces once.  Every fast operation must equal its reference exactly and
return runs in reduced form.
"""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid.braid import BraidElt, gmap, theta
from kleinbraid.cli import main
from kleinbraid.kernel import KernelVector, project
from kleinbraid.kleinpi import KleinElt, eps
from kleinbraid.words import BIG_B, MAX_RUNS, ONE, U, V, Word, WordParseError, parse_word

from common import PROFILE


# ---------------------------------------------------------------------------
# reference definitions


def ref_mul(x, y):
    return Word(x.runs + y.runs)


def ref_inv(x):
    return Word(tuple((g, -e) for g, e in reversed(x.runs)))


def ref_pow(x, n):
    base = x if n >= 0 else ref_inv(x)
    out = ONE
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def ref_theta(t, w):
    d = t.n % 2
    b_in, b_out = ref_pow(BIG_B, t.m - d), ref_pow(BIG_B, d - t.m)
    img_u = ref_mul(ref_mul(b_in, ref_pow(U, eps(d))), b_out)
    img_v = ref_mul(ref_mul(ref_mul(ref_pow(BIG_B, t.m), V), ref_pow(U, -2 * t.m)), b_out)
    runs = []
    for g, k in w.runs:
        img = img_u if g == "u" else img_v
        letter = img.runs if k > 0 else ref_inv(img).runs
        for _ in range(abs(k)):
            runs.extend(letter)
    return Word(tuple(runs))


def theta_by_products(t, w):
    """Reference for theta and the braid product: B^c · φ_t(w) · B^-c,
    c = m - δn, with φ_t(w) the product of the images of w's runs, all
    built by word products."""
    d = t.n % 2
    img_u, img_v = U ** eps(d), BIG_B ** d * V * U ** (-2 * t.m)
    body = ONE
    for g, k in w.runs:
        body = body * (img_u if g == "u" else img_v) ** k
    conj = BIG_B ** (t.m - d)
    return conj * body * conj.inv()


def ref_kpow(a, k):
    base = a if k >= 0 else a.inv()
    out = KleinElt()
    for _ in range(abs(k)):
        out = out * base
    return out


def ref_bpow(a, k):
    base = a if k >= 0 else a.inv()
    out = BraidElt()
    for _ in range(abs(k)):
        out = out * base
    return out


def ref_gmap(w):
    out = KleinElt()
    for g, e in w.runs:
        out = out * (KleinElt(e, 0) if g == "u" else KleinElt(0, e))
    return out


def assert_reduced(w):
    assert isinstance(w.runs, tuple)
    assert all(g in ("u", "v") and type(e) is int and e != 0 for g, e in w.runs)
    assert all(w.runs[i][0] != w.runs[i + 1][0] for i in range(len(w.runs) - 1))


# ---------------------------------------------------------------------------
# strategies

exponents = st.one_of(
    st.sampled_from((1, -1, 2, -2)),
    st.integers(-40, 40).filter(bool),
    st.integers(-10**6, 10**6).filter(bool),
)
plain_words = st.lists(st.tuples(st.sampled_from("uv"), exponents), max_size=12).map(
    lambda runs: Word(tuple(runs))
)


def conjugates(base):
    """Words p c p^-1, whose ends cancel against each other under powers."""
    return st.tuples(base, base).map(lambda pc: ref_mul(ref_mul(pc[0], pc[1]), ref_inv(pc[0])))


words = st.one_of(plain_words, conjugates(plain_words))

short_exponents = st.integers(-4, 4).filter(bool)
short_plain = st.lists(st.tuples(st.sampled_from("uv"), short_exponents), max_size=5).map(
    lambda runs: Word(tuple(runs))
)
short_words = st.one_of(short_plain, conjugates(short_plain))
twists = st.builds(KleinElt, st.integers(-50, 50), st.integers(-3, 3))
small_twists = st.builds(KleinElt, st.integers(-4, 4), st.integers(-3, 3))


# ---------------------------------------------------------------------------
# fast operations equal their references


@PROFILE
@given(words, words)
def test_product_matches_reference(x, y):
    out = x * y
    assert out == ref_mul(x, y)
    assert_reduced(out)
    assert x * ref_inv(x) == ONE


@PROFILE
@given(words)
def test_inverse_matches_reference(x):
    out = x.inv()
    assert out == ref_inv(x)
    assert_reduced(out)


@PROFILE
@given(words, st.integers(-6, 6))
def test_power_matches_reference(x, n):
    out = x ** n
    assert out == ref_pow(x, n)
    assert_reduced(out)


@PROFILE
@given(twists, short_words)
def test_theta_matches_substitution(t, w):
    out = theta(t, w)
    assert out == ref_theta(t, w)
    assert_reduced(out)


def _no_word_product(self, other):
    raise AssertionError("a word product was built")


theta_words = st.one_of(
    st.lists(st.tuples(st.sampled_from("uv"), st.integers(-40, 40).filter(bool)), max_size=8).map(
        lambda runs: Word(tuple(runs))
    ),
    short_words,
)


@PROFILE
@given(twists, twists, theta_words, theta_words)
def test_theta_and_braid_product_match_word_products(t, t2, w, w2):
    # theta, the braid product and the braid inverse write one run list
    # each, with no word product; the old route builds them by products
    image = theta_by_products(t, w)
    product = BraidElt(w2 * image, t * t2)
    inverse = BraidElt(theta_by_products(t.inv(), w2.inv()), t.inv())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Word, "__mul__", _no_word_product)
        out = theta(t, w)
        out_product = BraidElt(w2, t) * BraidElt(w, t2)
        out_inverse = BraidElt(w2, t).inv()
    assert out == image
    assert out_product == product
    assert out_inverse == inverse
    for word in (out, out_product.word, out_inverse.word):
        assert_reduced(word)


@PROFILE
@given(st.builds(KleinElt, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)), st.integers(-30, 30))
def test_klein_power_matches_loop(a, k):
    assert a ** k == ref_kpow(a, k)


@PROFILE
@given(short_words, small_twists, st.integers(-5, 5))
def test_braid_power_matches_loop(w, t, k):
    out = BraidElt(w, t) ** k
    assert out == ref_bpow(BraidElt(w, t), k)
    assert_reduced(out.word)


@PROFILE
@given(words)
def test_gmap_matches_klein_product(w):
    assert gmap(w) == ref_gmap(w)


@PROFILE
@given(st.lists(st.tuples(st.sampled_from("uvB1"), st.integers(-6, 6)), max_size=10))
def test_parse_matches_term_by_term_product(terms):
    text = " ".join(f"{sym}^{e}" for sym, e in terms)
    expected = ONE
    for sym, e in terms:
        term = {"u": U, "v": V, "B": BIG_B, "1": ONE}[sym]
        expected = ref_mul(expected, ref_pow(term, e))
    out = parse_word(text)
    assert out == expected
    assert_reduced(out)


_B_RUNS = (("u", 1), ("v", 1), ("u", 1), ("v", -1))
_B_INV_RUNS = (("v", 1), ("u", -1), ("v", -1), ("u", -1))
# str.isspace characters, ASCII and not
spaces = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2003\u3000"), max_size=3)
# a term: its symbol and its exponent text ("" for none), then the runs it
# expands to
terms = st.one_of(
    st.tuples(
        st.sampled_from("uv"),
        st.one_of(st.integers(-50, 50), st.integers(-10**6, 10**6)),
    ),
    st.tuples(st.just("B"), st.integers(-20, 20)),
    st.tuples(st.just("1"), st.integers(-5, 5)),
).flatmap(lambda se: st.tuples(
    st.just(se[0]),
    st.sampled_from(["", "^1"] if se[1] == 1 else [f"^{se[1]}"]),
    st.just(se[1]),
))


def _expand(sym, exp):
    if sym == "1":
        return ()
    if sym == "B":
        return _B_RUNS * exp if exp >= 0 else _B_INV_RUNS * -exp
    return ((sym, exp),)


@PROFILE
@given(st.lists(st.tuples(spaces, terms), max_size=10), spaces)
def test_parse_matches_expanded_runs(items, tail):
    text, runs = "", []
    for space, (sym, exp_text, exp) in items:
        if not space and text[-1:].isdigit() and sym == "1":
            space = " "  # "u^2" then "1" would read as "u^21"
        text += space + sym + exp_text
        runs.extend(_expand(sym, exp))
    text += tail
    out = parse_word(text)
    assert out == Word(tuple(runs))
    assert_reduced(out)
    assert parse_word(str(out)) == out


def test_parse_errors_are_pinned():
    # a parse error names the first character that starts no term, or the
    # B term that passes the budget, and its position
    unexpected = "expected 'u', 'v', 'B' or '1', found {!r} (at position {})"
    budget = f"word expands to more than the budget of {MAX_RUNS} runs (at position {{}})"
    for text, message, pos in (
        ("u  x", unexpected.format("x", 3), 3),
        ("u^", unexpected.format("^", 1), 1),
        ("u^-", unexpected.format("^", 1), 1),
        ("v ^2", unexpected.format("^", 2), 2),
        ("u\u3000x", unexpected.format("x", 2), 2),
        ("u^- 2", unexpected.format("^", 1), 1),
        ("u^+2", unexpected.format("^", 1), 1),
        (f"B^{MAX_RUNS // 4 + 1}", budget.format(0), 0),
        (f"u B^-{MAX_RUNS // 4}", budget.format(2), 2),
        ("u v B^20000000", budget.format(4), 4),
    ):
        with pytest.raises(WordParseError) as err:
            parse_word(text)
        assert (str(err.value), err.value.pos) == (message, pos)
    # trailing and non-ASCII whitespace is skipped
    for text in ("u v  ", "u v \t\n", "u\xa0v", "\u2003u v\u3000", "u\u3000v\u2003"):
        assert parse_word(text) == U * V
    assert parse_word("") == parse_word(" \xa0 ") == ONE


def test_word_always_reduces():
    # no caller can skip the reduction: the constructor has one argument
    with pytest.raises(TypeError):
        Word((("u", 1),), reduced=True)
    assert Word((("u", 2), ("v", 0), ("u", -2), ("v", 1), ("v", -3))).runs == (("v", -2),)


# ---------------------------------------------------------------------------
# inputs that ran past a 10 s timeout when products re-reduced in full


def test_big_b_power_is_linear():
    assert len((BIG_B ** 200000).runs) == 800000


def test_project_big_b_power():
    assert project(parse_word("B^200000")) == 200000 * KernelVector.unit(0, 0)


def test_parse_joins_reduced_terms_without_reducing_again(monkeypatch):
    # every term is reduced as built, so parse_word cancels only at the seams
    def no_reduce(runs):
        raise AssertionError("parse_word reduced its runs a second time")

    monkeypatch.setattr("kleinbraid.words._reduce", no_reduce)
    out = parse_word("B^200000")
    assert len(out.runs) == 800000
    assert out == BIG_B ** 200000
    assert parse_word("u v v^-1 u^-1 B^2 u^0 1 B^-1 v^-1 v") == BIG_B


def test_parse_budget_fails_before_building(monkeypatch):
    def no_power(self, n):
        raise AssertionError("a word power was built")

    monkeypatch.setattr(Word, "__pow__", no_power)
    budget = MAX_RUNS // 4
    for text, pos in ((f"B^{budget + 1}", 0), (f"u B^-{budget}", 2), ("u v B^20000000", 4)):
        with pytest.raises(WordParseError, match="budget") as err:
            parse_word(text)
        assert err.value.pos == pos


def test_cli_rejects_word_over_budget(capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the word was built")

    monkeypatch.setattr(Word, "__pow__", no_build)
    monkeypatch.setattr("kleinbraid.cli.project", no_build)
    assert main(["kernel-project", "B^20000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "budget" in err


def test_theta_large_twist_closed_form():
    m = 100000
    expected = BIG_B ** (m - 1) * U ** -1 * BIG_B * V * U ** (-2 * m) * BIG_B ** (1 - m)
    out = theta(KleinElt(m, 1), U * V)
    assert out == expected
    assert_reduced(out)


def test_braid_eval_large_twist_closed_form():
    # (u; m,1)(v; 0,0) = (u B^m v u^-2m B^(1-m); m, 1), written out with
    # B = u v u v^-1 and the cancellations at each seam done by hand
    m = 100000
    expected = (
        "(u^2 v u v^-1"
        + " u v u v^-1" * (m - 2)
        + f" u v u^{1 - 2 * m}"
        + " v u^-1 v^-1 u^-1" * (m - 1)
        + f" ; {m}, 1)\n"
    )
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["braid-eval", f"(u;{m},1) (v;0,0)"])
    assert code == 0
    assert buf.getvalue() == expected
