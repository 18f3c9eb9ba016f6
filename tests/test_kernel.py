import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid import kernel
from kleinbraid.braid import gmap, rho, theta
from kleinbraid.cli import main
from kleinbraid.kernel import (
    BOXES,
    MAX_DEPOSITS,
    RHO,
    KernelVector,
    _accumulate,
    _from_boxes,
    boxes_t,
    c_ab,
    c_agreement,
    c_operator,
    expand,
    project,
    q_identity_check,
    rho_ab,
    theta_ab,
    theta_operator,
    tilde_i,
    tilde_j,
    tilde_o,
    tilde_q,
    tilde_t,
    word_i,
    word_j,
    word_o,
    word_q,
    word_t,
)
from kleinbraid.kleinpi import K_IDENTITY, KleinElt, eps, sign_of
from kleinbraid.words import ONE, V, Word, comm, parse_word

from common import PROFILE, basis_factors, basis_product, kernel_products, twists


def unit(k, l):
    return KernelVector.unit(k, l)


def test_vector_arithmetic():
    v = KernelVector({(0, 0): 2, (1, -1): -3})
    assert v + (-v) == KernelVector()
    assert 2 * v == v + v
    assert v[(0, 0)] == 2 and v[(5, 5)] == 0
    assert not KernelVector({(3, 3): 0})
    assert str(KernelVector()) == "0"
    assert str(KernelVector({(1, 2): -3, (0, 0): 1})) == "(0,0):1 (1,2):-3"
    # one-entry rows, a gap, a change of coefficient and negative l
    w = KernelVector({(0, -3): 2, (0, -2): 2, (0, 0): 2, (0, 1): -1, (1, -5): 4, (-2, 7): 1})
    assert str(w) == "(-2,7):1 (0,-3):2 (0,-2):2 (0,0):2 (0,1):-1 (1,-5):4"


def ref_str(coeffs):
    # the per-entry format that KernelVector.__str__ writes run by run
    return " ".join(f"({k},{l}):{c}" for (k, l), c in sorted(coeffs.items())) if coeffs else "0"


# rows of segments (row, lo, length, coef), written in order, so that later
# segments overwrite earlier ones and leave gaps and mixed coefficients
segments = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-30, 30), st.integers(0, 12), st.integers(-3, 3)),
    max_size=6,
)


@PROFILE
@given(segments, st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-40, 40)), st.integers(-3, 3), max_size=6))
def test_str_matches_the_per_entry_format(segs, singles):
    coeffs = {}
    for row, lo, size, c in segs:
        coeffs.update({(row, l): c for l in range(lo, lo + size)})
    coeffs.update(singles)
    v = KernelVector(coeffs)
    assert str(v) == ref_str({key: c for key, c in coeffs.items() if c})


def test_expand_examples():
    assert expand(0, 0) == parse_word("B")
    assert expand(1, 0) == parse_word("v B v^-1")
    assert expand(0, 2) == parse_word("u^2 B u^-2")
    for k in range(-4, 5):
        for l in range(-4, 5):
            assert gmap(expand(k, l)) == K_IDENTITY


def test_project_examples():
    assert project(expand(2, -1)) == unit(2, -1)
    assert project(ONE) == KernelVector()
    assert project(word_i(1)) == -unit(1, 0)
    # a row's two intervals, of opposite signs, leave their difference,
    # and row 0 of the second word, [0, 3) both ways, leaves nothing
    assert project(parse_word("u^3 v u^-1 v^-1 u^-4")) == -unit(0, 3)
    x = parse_word("u^3 v u v^2 u^-1 v^-3 u^-3")
    assert project(x) == ref_project(x)
    assert {k for (k, _), _ in project(x).items()} == {1, 2}


def test_project_rejects_nonkernel_words():
    with pytest.raises(ValueError):
        project(parse_word("u"))
    with pytest.raises(ValueError):
        project(parse_word("v^2 B"))


@PROFILE
@given(basis_factors, kernel_products, kernel_products)
def test_project_roundtrip_and_additivity(factors, x, y):
    vec = KernelVector([((k, l), s) for k, l, s in factors])
    assert project(basis_product(factors)) == vec
    assert project(x * y) == project(x) + project(y)
    assert not project(comm(x, y))


def test_theta_ab_examples():
    v = KernelVector({(2, 1): 5, (-1, 0): -2})
    assert theta_ab(K_IDENTITY, v) == v
    assert theta_ab(KleinElt(1, 1), unit(0, 0)) == -unit(0, 0)
    assert theta_ab(KleinElt(1, 0), unit(1, 2)) == unit(1, 0)


def test_rho_ab_examples():
    assert rho_ab(unit(0, 0)) == unit(0, 0)
    assert rho_ab(unit(1, 3)) == -unit(-1, 3)
    assert rho_ab(unit(2, 3)) == unit(-2, -3)


def test_c_ab_examples():
    v = KernelVector({(1, 1): 4})
    assert c_ab(0, 0, v) == v
    assert c_ab(1, 1, unit(0, 0)) == unit(1, 1)
    assert c_ab(2, 1, unit(1, 0)) == unit(3, -1)


shifts = st.integers(-3, 3)


@PROFILE
@given(
    st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), shifts, max_size=4),
    shifts,
    shifts,
)
def test_c_ab_invertible(coeffs, p, q):
    v = KernelVector(coeffs)
    w = c_ab(p, q, v)
    # undo per basis vector: the l-shift direction depends on the k parity
    undone = KernelVector(
        [((k - p, l - (1 if (k - p) % 2 == 0 else -1) * q), c) for (k, l), c in w.items()]
    )
    assert undone == v


@PROFILE
@given(shifts, shifts, kernel_products)
def test_c_agreement_examples(p, q, x):
    assert c_agreement(1, 0, parse_word("B"))
    assert project((V * parse_word("u^0")).conj(parse_word("B"))) == unit(1, 0)
    assert c_agreement(0, 1, expand(1, 1))
    assert c_ab(0, 1, unit(1, 1)) == unit(1, 0)
    assert c_agreement(p, q, x)


@PROFILE
@given(kernel_products, twists)
def test_operator_compatibility_random(x, t):
    assert project(theta(t, x)) == theta_ab(t, project(x))
    assert project(rho(x)) == rho_ab(project(x))


def test_word_family_examples():
    for k in range(-4, 5):
        assert word_o(k, 0) == ONE
    assert word_q(0, 5) == ONE
    assert word_i(1) == V * (V * parse_word("B")).inv()
    with pytest.raises(ValueError):
        word_t(2, 3)


def test_word_families_live_in_kernel():
    for k in range(-4, 5):
        for r in (0, 1):
            assert gmap(word_t(k, r)) == K_IDENTITY
        assert gmap(word_i(k)) == K_IDENTITY
        for l in range(-4, 5):
            assert gmap(word_o(k, l)) == K_IDENTITY
            assert gmap(word_j(k, l)) == K_IDENTITY
            assert gmap(word_q(k, l)) == K_IDENTITY


def test_tilde_zero_cases():
    assert tilde_i(0) == KernelVector()
    for r in (0, 1):
        assert tilde_t(0, r) == KernelVector()
    for k in range(-3, 4):
        assert tilde_o(k, 0) == tilde_o(0, k) == KernelVector()
        assert tilde_j(k, 0) == tilde_j(0, k) == KernelVector()
    assert tilde_q(0, 3) == KernelVector()


def test_tilde_examples():
    assert tilde_i(1) == -unit(1, 0)
    assert tilde_q(1, 0) == unit(0, 0)


@pytest.mark.parametrize("k", range(-4, 5))
def test_tilde_matches_projection(k):
    for r in (0, 1):
        assert project(word_t(k, r)) == tilde_t(k, r)
    assert project(word_i(k)) == tilde_i(k)
    for l in range(-4, 5):
        assert project(word_o(k, l)) == tilde_o(k, l)
        assert project(word_j(k, l)) == tilde_j(k, l)
        assert project(word_q(k, l)) == tilde_q(k, l)


def test_boxes_materialise_to_projection():
    # every family's boxes, the basis vector's included, list the projection
    # of its word; zero arguments give no box point and the empty vector
    words = {"unit": expand, "t": word_t, "i": word_i, "o": word_o, "j": word_j, "q": word_q}
    assert sorted(words) == sorted(BOXES)
    grid = range(-6, 7)
    args = {
        "unit": [(k, l) for k in grid for l in grid],
        "t": [(k, r) for k in grid for r in (0, 1)],
        "i": [(k,) for k in grid],
    }
    for family, boxes in BOXES.items():
        for a in args.get(family, [(k, l) for k in grid for l in grid]):
            assert _from_boxes(boxes(*a)) == project(words[family](*a)), (family, a)
    assert _from_boxes(boxes_t(0, 1)) == _from_boxes(BOXES["q"](0, 4)) == KernelVector()
    for r in (-1, 2):
        with pytest.raises(ValueError, match="r must be 0 or 1"):
            boxes_t(3, r)
        with pytest.raises(ValueError, match="r must be 0 or 1"):
            tilde_t(3, r)


def ref_from_boxes(boxes):
    # every point of every box, one coefficient at a time
    return KernelVector(
        [
            ((k0 + dk * i, l0 + dl * j), coef)
            for coef, k0, dk, l0, dl, nk, nl in boxes
            for i in range(nk)
            for j in range(nl)
        ]
    )


family_args = {
    "unit": st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    "t": st.tuples(st.integers(-40, 40), st.integers(0, 1)),
    "i": st.tuples(st.integers(-40, 40)),
}
family_calls = st.sampled_from(sorted(BOXES)).flatmap(
    lambda f: st.tuples(st.just(f), family_args.get(f, st.tuples(st.integers(-40, 40), st.integers(-40, 40))))
)
boxes = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.integers(-5, 5),
        st.integers(-2, 2).map(lambda x: 2 * x),
        st.integers(-9, 9),
        st.integers(-2, 2),
        st.integers(0, 4),
        st.integers(0, 6),
    ),
    max_size=5,
)


@PROFILE
@given(st.lists(family_calls, min_size=1, max_size=3), boxes)
def test_boxes_write_the_rows_of_the_projection(calls, raw):
    # boxes of several families at once share rows, like the constant's atoms
    words = {"unit": expand, "t": word_t, "i": word_i, "o": word_o, "j": word_j, "q": word_q}
    listed = [box for family, a in calls for box in BOXES[family](*a)]
    want = KernelVector()
    for family, a in calls:
        want = want + project(words[family](*a))
    assert _from_boxes(listed) == ref_from_boxes(listed) == want
    # any boxes, with dl = 0 or |dl| = 2 among them, and zero coefficients
    got = _from_boxes(raw)
    assert got == ref_from_boxes(raw)
    assert all(c != 0 for _, c in got.items())


def test_q_identity():
    assert q_identity_check(1, 0)
    assert q_identity_check(-2, 1)
    assert q_identity_check(3, -2)
    with pytest.raises(ValueError):
        q_identity_check(0, 1)


# ---------------------------------------------------------------------------
# project against the letter-by-letter walker it replaced


def ref_row(m, n):
    # coordinates deposited by a v-letter leaving coset (m, n)
    k = eps(n) * m
    if k == 0:
        return []
    sk = sign_of(k)
    off = (1 + sk) // 2
    return [((n, sk * i - off), sk) for i in range(1, abs(k) + 1)]


def ref_project(w):
    acc = {}
    m = n = 0
    for g, e in w.runs:
        if g == "u":
            m += eps(n) * e
            continue
        for _ in range(abs(e)):
            if e > 0:
                for key, val in ref_row(m, n):
                    acc[key] = acc.get(key, 0) + val
                n += 1
            else:
                n -= 1
                for key, val in ref_row(m, n):
                    acc[key] = acc.get(key, 0) - val
    assert m == n == 0
    return KernelVector(acc)


v_exponents = st.one_of(
    st.integers(-3, 3),
    st.integers(-80, 80),
    st.sampled_from((-200, -61, 57, 200)),
)


@st.composite
def kernel_words(draw):
    """Kernel words that visit cosets with |m| <= 20 through long v-runs of
    either sign: each step moves to a drawn m by a u-run, then runs v^e."""
    runs = []
    m = n = 0
    for target, e in draw(st.lists(st.tuples(st.integers(-20, 20), v_exponents), max_size=8)):
        runs += [("u", eps(n) * (target - m)), ("v", e)]
        m, n = target, n + e
    runs += [("u", -eps(n) * m), ("v", -n)]
    return Word(tuple(runs))


@PROFILE
@given(kernel_words(), st.integers(-3, 3), st.integers(-3, 3))
def test_project_matches_letter_walker(w, k, l):
    assert gmap(w) == K_IDENTITY
    assert project(w) == ref_project(w)
    # a basis word in front adds its unit vector and nothing else
    x = expand(k, l) * w
    assert project(x) == ref_project(x) == project(w) + unit(k, l)


@st.composite
def overlapping_kernel_words(draw):
    """Kernel words whose v-runs cross the same rows twice, with opposite
    signs: an excursion runs v^e at a drawn m, maybe a nested excursion,
    then v^-e back at a drawn m' or at m again.  The two intervals of each
    row it crosses overlap and cancel in part, or wholly when m' = m and
    the nested excursion keeps the two runs apart."""
    runs = []
    m = n = 0

    def move(target, e):
        nonlocal m, n
        runs.extend([("u", eps(n) * (target - m)), ("v", e)])
        m, n = target, n + e

    def excursion(depth):
        up, down, e = draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20), v_exponents))
        move(up, e)
        if depth and draw(st.booleans()):
            excursion(depth - 1)
        move(up if draw(st.booleans()) else down, -e)

    for _ in range(draw(st.integers(1, 3))):
        excursion(2)
    runs.append(("u", -eps(n) * m))
    return Word(tuple(runs))


@PROFILE
@given(overlapping_kernel_words())
def test_project_of_overlapping_rows(w):
    assert gmap(w) == K_IDENTITY
    vec = project(w)
    assert vec == ref_project(w)
    assert all(c != 0 for _, c in vec.items())


# ---------------------------------------------------------------------------
# every result of the vector operations is in canonical form

coeffs = st.integers(-3, 3)
vectors = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coeffs, max_size=8)
# sums and compositions of the induced operators, with terms of both l-slopes
operators = st.builds(
    lambda p, q, m, n: RHO @ c_operator(p, q) + theta_operator(m, n), coeffs, coeffs, coeffs, coeffs
)


def model(items):
    # a plain dict of the nonzero coefficients
    return _accumulate({}, items)


def model_apply(op, entries):
    return model(
        ((a * k + p, b * l + q), c * x)
        for (k, l), x in entries.items()
        for (a, p, b, q), c in op.terms[k % 2].items()
    )


def assert_canonical(v, expected):
    # rows in increasing k; per row, sorted disjoint nonzero segments, and
    # two segments that touch carry different coefficients
    rows = v._rows
    assert list(rows) == sorted(rows)
    for segs in rows.values():
        assert type(segs) is tuple and segs
        assert all(lo < hi and c for lo, hi, c in segs)
        for (_, hi, c), (lo, _, c2) in zip(segs, segs[1:]):
            assert hi < lo or (hi == lo and c != c2)
    assert list(v.items()) == sorted(expected.items())
    # every key, its neighbours (gaps, before a row's first segment and past
    # its last) and a row that is absent
    probes = {(k, l + d) for k, l in expected for d in (-1, 0, 1)} | {(9, 0)}
    assert all(v[key] == expected.get(key, 0) for key in probes)
    assert eval(repr(v)) == v


@PROFILE
@given(vectors, vectors, st.lists(st.tuples(st.tuples(coeffs, coeffs), coeffs)), coeffs, operators)
def test_vector_results_stay_zero_free(a, b, pairs, scalar, op):
    x, y = KernelVector(a), KernelVector(b)
    ma, mb = model(a.items()), model(b.items())
    neg_b = {key: -c for key, c in mb.items()}
    results = [
        (x, ma),
        (y, mb),
        (KernelVector(pairs), model(pairs)),
        (x + y, model([*ma.items(), *mb.items()])),
        (x - y, model([*ma.items(), *neg_b.items()])),
        (y - x, model([*mb.items(), *((key, -c) for key, c in ma.items())])),
        (x - x, {}),
        (-y, neg_b),
        (scalar * x, model((key, scalar * c) for key, c in ma.items())),
        (0 * x, {}),
        (op(x), model_apply(op, ma)),
    ]
    for v, expected in results:
        assert_canonical(v, expected)
    assert x - x == 0 * x == KernelVector()
    assert x + y - y == x
    assert -(-x) == x


def test_vector_is_the_one_constructor(monkeypatch):
    x = unit(0, 1)

    def refuse(rows):
        raise AssertionError("built")

    monkeypatch.setattr(kernel, "_vector", refuse)
    builds = [
        KernelVector,
        lambda: KernelVector({(0, 0): 1}),
        lambda: unit(0, 0),
        lambda: project(word_o(1, 2)),
        lambda: _from_boxes(boxes_t(3, 1)),
        lambda: x + x,
        lambda: x - x,
        lambda: -x,
        lambda: 2 * x,
        lambda: RHO(x),
    ]
    for build in builds:
        with pytest.raises(AssertionError, match="built"):
            build()


def test_project_deposit_budget(monkeypatch):
    # v^-2 at coset (3, 2) deposits 2·3 coefficients
    monkeypatch.setattr(kernel, "MAX_DEPOSITS", 6)
    assert project(word_o(1, 3)) == tilde_o(1, 3)
    for w in (word_o(1, 4), word_o(1, -4), word_o(1, 3) * word_o(1, 1)):
        with pytest.raises(ValueError, match="budget of 6 coefficients"):
            project(w)


@pytest.mark.parametrize("text", ["u^2000 v^2000", "u^3 v^400000 u^-3"])
def test_project_checks_membership_before_the_budget(text):
    # each scan would deposit more than MAX_DEPOSITS coefficients, but the
    # word is not in ker gmap, and that is what project reports
    with pytest.raises(ValueError, match="not in ker gmap"):
        project(parse_word(text))


def test_cli_rejects_deposits_over_budget(capsys, monkeypatch):
    # one exponent would deposit 2,000,000 coefficients from four parsed runs
    def no_vector(coeffs):
        raise AssertionError("the projection was built")

    monkeypatch.setattr(kernel, "_vector", no_vector)
    assert main(["kernel-project", "v^2 u^1000000 v^-2 u^-1000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"budget of {MAX_DEPOSITS} coefficients" in err
