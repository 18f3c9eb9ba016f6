"""Periodic functionals and the certificate sweep over pulled-back tables.

The references below are the closure formulas the xi_* builders used
before they became tables, the per-basis sweep check_certificate ran
before it read pulled-back tables, which builds op(e(k, l)) for every
window point and applies the functional to the materialised constant,
and the per-point sweep it ran before it kept the linear part per
residue class of (m, n).  Both sweeps build the forms of their class
once per parity of n and evaluate them at each point.  The tables must
agree with the formulas on boxes several periods wide, pulling back must
agree with applying the functional after the operator, the functional on
the constant's atoms must agree with the functional on the projections
of the family words moved by c_ab, and each reference sweep must return
the report of check_certificate, failures included.
"""

import itertools
import random
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kleinbraid import certificate, kernel
from kleinbraid.certificate import (
    CertificateReport,
    Functional,
    check_certificate,
    master_forms,
    xi_column,
    xi_congruence,
    xi_count,
    xi_parity,
    xi_row,
)
from kleinbraid.classifier import HomClass, decide
from kleinbraid.kernel import (
    BOXES,
    ID,
    RHO,
    KernelVector,
    c_ab,
    c_operator,
    expand,
    project,
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
from kleinbraid.kleinpi import delta, eps
from kleinbraid.suites import _grid_classes

from common import PROFILE, build, exprs, small


# ---------------------------------------------------------------------------
# reference closure formulas


def ref_xi_parity(w):
    if w % 2:
        return lambda k, l: 1
    return lambda k, l: k % 2


def ref_xi_congruence(s, n, z):
    mod = abs(4 * s)
    target = 2 * n - 2 * z - 1
    return lambda k, l: 1 if (k % mod == 0 or (k - target) % mod == 0) else 0


def ref_xi_count(n):
    return lambda k, l: delta(k + n)


def ref_xi_column(r1, r2, m, n):
    mod = 2 * abs(r1)
    target = eps(n) * m - r2 // 2
    return lambda k, l: (k + n + 1) % 2 if (l - target) % mod == 0 else 0


def ref_xi_row(s, n):
    mod = 4 * abs(s)
    return lambda k, l: 1 if (k - n) % mod == 0 else 0


def functional_cases():
    """(functional, reference formula, expected period) over small parameters."""
    nonzero = (-3, -2, -1, 1, 2, 3)
    small = range(-3, 4)
    for w in small:
        yield xi_parity(w), ref_xi_parity(w), (2, 1)
    for n in small:
        yield xi_count(n), ref_xi_count(n), (2, 1)
    for s, n, z in itertools.product(nonzero, small, (0, 1)):
        yield xi_congruence(s, n, z), ref_xi_congruence(s, n, z), (4 * abs(s), 1)
    for s, n in itertools.product(nonzero, small):
        yield xi_row(s, n), ref_xi_row(s, n), (4 * abs(s), 1)
    for r1, r2, m, n in itertools.product((1, 2, 3), (-2, 0, 2), small, small):
        yield xi_column(r1, r2, m, n), ref_xi_column(r1, r2, m, n), (2, 2 * r1)


def _equation_at(data):
    """(m, n) -> the master equation of the class data, from its forms
    built once per parity of n."""
    forms = [master_forms(*data, parity) for parity in (0, 1)]
    return lambda m, n: forms[n % 2].equation_at(m, n)


def reference_sweep(cls, window, mn):
    """check_certificate as a per-basis sweep: every window point's image
    under Ax and Ay is built as a vector and the functional applied to it.
    Its own verdict must be the one its report reads off the failures."""
    family, data, build, args_at = certificate._family(cls, decide(cls))
    equation_at = _equation_at(data)
    failures = []
    linear_ok = constant_ok = True
    coords = range(-window, window + 1)
    units = [(k, l, KernelVector.unit(k, l)) for k in coords for l in coords]
    for m in range(-mn, mn + 1):
        for n in range(-mn, mn + 1):
            eq = equation_at(m, n)
            f = build(*args_at(m, n))
            for k, l, e in units:
                if f(eq.ax(e)) != 0:
                    linear_ok = False
                    failures.append((m, n, "Ax", k, l))
                if f(eq.ay(e)) != 0:
                    linear_ok = False
                    failures.append((m, n, "Ay", k, l))
            if f(eq.constant) == 0:
                constant_ok = False
                failures.append((m, n, "C", 0, 0))
    report = CertificateReport(family, (window, mn), tuple(sorted(failures)))
    assert (report.linear_killed, report.constant_nonzero_for_all) == (linear_ok, constant_ok)
    return report


def per_point_sweep(cls, window, mn):
    """check_certificate as it ran before it kept the linear part per
    residue class of (m, n): every point builds its master equation and
    lists the nonzero entries of the functional pulled back through its
    Ax and Ay."""
    family, data, build, args_at = certificate._family(cls, decide(cls))
    equation_at = _equation_at(data)
    failures = []
    coords = range(-window, window + 1)
    for m in range(-mn, mn + 1):
        for n in range(-mn, mn + 1):
            eq = equation_at(m, n)
            f = build(*args_at(m, n))
            for name, op in (("Ax", eq.ax), ("Ay", eq.ay)):
                pulled = f.pullback(op)
                if not any(map(any, pulled.table)):
                    continue
                bad = [(k, l) for k in coords for l in coords if pulled.value(k, l)]
                if not bad:
                    pk, pl = pulled.period
                    bad = [(k, l) for k in range(pk) for l in range(pl) if pulled.table[k][l]]
                failures.extend((m, n, name, k, l) for k, l in bad)
            if f.on_atoms(eq.atoms) == 0:
                failures.append((m, n, "C", 0, 0))
    return CertificateReport(family, (window, mn), tuple(sorted(failures)))


# ---------------------------------------------------------------------------
# tables against formulas


def test_tables_equal_formulas_on_several_periods():
    for f, formula, period in functional_cases():
        assert f.period == period
        pk, pl = period
        for k in range(-3 * pk, 3 * pk):
            for l in range(-3 * pl, 3 * pl):
                want = formula(k, l)
                assert f.value(k, l) == want
                assert f(KernelVector.unit(k, l)) == want


def test_call_is_linear_and_reduced():
    vec = KernelVector({(0, 0): 3, (1, 2): -1, (5, -4): 2})
    for f, formula, _ in functional_cases():
        total = sum(c * formula(k, l) for (k, l), c in vec.items())
        assert f(vec) == (total % f.mod if f.mod else total)


# ---------------------------------------------------------------------------
# pulling back through term tables


nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def periodic_tables(draw):
    """A functional with an arbitrary period box up to 6×9, odd k-periods
    included, Z-valued or reduced mod 2 or 3."""
    pk, pl = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    mod = draw(st.sampled_from((0, 2, 3)))
    values = st.integers(0, mod - 1) if mod else st.integers(-2, 2)
    row = st.lists(values, min_size=pl, max_size=pl).map(tuple)
    table = draw(st.lists(row, min_size=pk, max_size=pk).map(tuple))
    return Functional(table, mod)


functionals = st.one_of(
    periodic_tables(),
    st.builds(xi_parity, st.integers(0, 1)),
    st.builds(xi_count, small),
    st.builds(xi_congruence, nonzero, small, st.integers(0, 1)),
    st.builds(xi_row, nonzero, small),
    st.builds(xi_column, st.integers(1, 3), small.map(lambda x: 2 * x), small, small),
)


# rows of nine columns: rotated by more than a period, reversed (rho at
# even k, theta with odd n) and reversed then rotated by more than a
# period; and two terms that read one row of a (2, 1) table, which add
WIDE = Functional(
    ((0, 1, 2, 0, 1, 1, 2, 0, 2), (1, 0, 0, 2, 2, 1, 0, 1, 0), (2, 2, 1, 0, 0, 0, 1, 1, 2)), 3
)


@PROFILE
@given(functionals, exprs)
@example(WIDE, ("c", 4, 13))
@example(WIDE, ("c", -5, -22))
@example(WIDE, ("rho",))
@example(WIDE, ("theta", 4, 1))
@example(WIDE, ("@", ("c", 2, -11), ("@", ("theta", -3, 1), ("rho",))))
@example(xi_column(4, 2, 3, 1), ("-", ("theta", 7, 1), ("c", 1, 17)))
@example(xi_count(0), ("+", ("id",), ("c", 2, 0)))
def test_pullback_equals_functional_after_operator(f, expr):
    op = build(expr)
    pulled = f.pullback(op)
    pk, pl = f.period
    assert pulled.period == (lcm(2, pk), pl)
    assert pulled.mod == f.mod
    for k in range(-13, 14):
        for l in range(-7, 8):
            assert pulled.value(k, l) == f(op(KernelVector.unit(k, l)))


def test_pullback_through_reflections_of_l():
    # RHO at even k and theta with odd n reverse l; a table more than two
    # columns wide tells a reversal from a shift
    asym = Functional(((0, 1, 1), (1, 0, 0), (0, 0, 1)), 0)
    fs = [asym] + [xi_column(r1, 0, m, n) for r1 in (2, 3) for m, n in ((1, 0), (-2, 1))]
    ops = [RHO, theta_operator(1, 1), c_operator(3, -2) @ RHO]
    for f, op in itertools.product(fs, ops):
        pulled = f.pullback(op)
        for k in range(-7, 8):
            for l in range(-7, 8):
                assert pulled.value(k, l) == f(op(KernelVector.unit(k, l)))


def test_pullback_composes():
    # (f∘A)∘B == f∘(A∘B): pulling back twice gives the same table
    f = xi_congruence(2, 1, 0)
    a, b = c_operator(3, -1) + RHO, theta_operator(2, 1) @ c_operator(-1, 2) - ID
    assert f.pullback(a).pullback(b) == f.pullback(a @ b)


def test_pullback_equality_sees_past_the_window():
    # a functional that is 1 only at k = 8 (mod 16) agrees with its pullback
    # through c(2, 0) on every e(k, l) with |k|, |l| <= 4, but not at k = 6
    spike = Functional(tuple((int(k == 8),) for k in range(16)), 2)
    shift = c_operator(2, 0)
    window = range(-4, 5)
    assert all(
        spike(shift(KernelVector.unit(k, l))) == spike(KernelVector.unit(k, l))
        for k in window
        for l in window
    )
    assert spike.pullback(shift) != spike
    assert spike.pullback(shift).value(6, 0) != spike.value(6, 0)


# ---------------------------------------------------------------------------
# the constant's atoms against the projections of the family words

# family name -> the kernel word whose projection the family's boxes list
WORDS = {"unit": expand, "t": word_t, "i": word_i, "o": word_o, "j": word_j, "q": word_q}

# family arguments: small ones, zero among them, and ones up to 60 in size
arg = st.one_of(st.integers(-3, 3), st.integers(-60, 60))
FAMILY_ARGS = {
    "unit": st.tuples(arg, arg),
    "t": st.tuples(arg, st.integers(0, 1)),
    "i": st.tuples(arg),
    "o": st.tuples(arg, arg),
    "j": st.tuples(arg, arg),
    "q": st.tuples(arg, arg),
}
offsets = st.integers(-70, 70)


@pytest.mark.parametrize("family", sorted(BOXES))
@PROFILE
@given(data=st.data(), f=periodic_tables(), coef=st.integers(-3, 3), p=offsets, q=offsets)
def test_atom_equals_reference_vector(family, data, f, coef, p, q):
    args = data.draw(FAMILY_ARGS[family], label="args")
    want = f(coef * c_ab(p, q, project(WORDS[family](*args))))
    assert f.on_atoms([(coef, p, q, family, args)]) == want


# family name -> its projection, materialised from its boxes
TILDE = {
    "unit": KernelVector.unit, "t": tilde_t, "i": tilde_i, "o": tilde_o, "j": tilde_j, "q": tilde_q
}


def test_atoms_on_both_sides_of_the_single_residue_rule():
    # a box whose two progressions each stay in one residue class is read
    # as one table entry; period (4, 1) with dk = ±2 and nk > 1 visits two
    # residues of k, and period (2, 4) two to four residues of l
    fs = [
        Functional(((1,), (2,), (0,), (-1,)), 0),
        xi_count(1),
        xi_column(2, 0, 1, 0),
        Functional(((0, 1, 2, -1), (3, 0, -2, 1)), 0),
    ]
    args = {"unit": [(3, -2)], "t": [(5, 0), (-4, 1), (1, 1)], "i": [(1,), (5,), (-6,)]}
    pairs = [(1, 1), (3, -2), (-4, 5), (0, 7), (2, 0), (-1, 1)]
    args.update({family: pairs for family in ("o", "j", "q")})
    sides = set()
    for f in fs:
        pk, pl = f.period
        for family, family_args in args.items():
            for a in family_args:
                for coef, p, q in ((1, 0, 0), (-2, 3, 1), (3, -5, -2)):
                    for _, _, dk, _, dl, nk, nl in BOXES[family](*a):
                        sides.add((nk == 1 or dk % pk == 0) and (nl == 1 or dl % pl == 0))
                    want = f(coef * c_ab(p, q, TILDE[family](*a)))
                    assert f.on_atoms([(coef, p, q, family, a)]) == want, (f, family, a, p, q)
    assert sides == {True, False}


class_data = st.tuples(small, small, small, small, st.integers(0, 1), st.integers(0, 1))


@PROFILE
@given(class_data, small, small, functionals)
def test_atoms_equal_materialised_constant(data, m, n, f):
    eq = master_forms(*data, n % 2).equation_at(m, n)
    assert all(coef for coef, *_ in eq.atoms)
    assert f.on_atoms(eq.atoms) == f(eq.constant)


def test_sweep_builds_no_vectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate sweep built a kernel vector")

    monkeypatch.setattr(KernelVector, "__init__", refuse)
    monkeypatch.setattr(kernel, "_vector", refuse)
    assert check_certificate(HomClass(4, r1=1, r2=2, s1=1, s2=1)).success


def test_certificate_decides_twice(monkeypatch):
    # once for the class in check_certificate, once for its representative
    calls = []

    def counted(cls):
        calls.append(cls)
        return decide(cls)

    monkeypatch.setattr(certificate, "decide", counted)
    check_certificate(HomClass(2, i=1, s1=1, s2=3), window=1, mn=1)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the sweep against the per-basis reference


def test_sweep_matches_reference_on_grid():
    # small windows keep the per-basis reference affordable on all 1331 classes
    checked = 0
    for cls in _grid_classes(3):
        if not decide(cls).bu:
            continue
        report = check_certificate(cls, window=2, mn=1)
        assert report.success, cls
        assert report == reference_sweep(cls, 2, 1)
        checked += 1
    assert checked == 1331


def test_sweep_matches_per_point_sweep_on_grid():
    checked = 0
    for cls in _grid_classes(3):
        if not decide(cls).bu:
            continue
        assert check_certificate(cls) == per_point_sweep(cls, 6, 4), cls
        checked += 1
    assert checked == 1331


def test_constant_evaluated_once_per_value_of_the_variables_it_reads(monkeypatch):
    # xi_count(n mod 2) is one functional per parity of n, so each group of
    # atoms is evaluated once per key (m mod Gm, n mod Gn) of its periods,
    # a variable of period 0 taken whole.  At each parity this type-4
    # class has three groups: periods (1, 1), one call; (0, 1), one per m
    # (9 values); and (1, 0), one per n (5 even values, 4 odd ones).  The
    # atoms that read both variables read n only in an offset p of
    # coefficient 2, which xi_count reads mod 2, so they join the group of
    # period (0, 1): 1 + 9 + 5 calls at even n and 1 + 9 + 4 at odd n
    cls = HomClass(4, r1=1, r2=-2, s1=3, s2=0)
    assert decide(cls).branch == "(d)(i)"
    calls = []
    on_atoms = Functional.on_atoms

    def counted(f, atoms):
        calls.append(atoms)
        return on_atoms(f, atoms)

    monkeypatch.setattr(Functional, "on_atoms", counted)
    report = check_certificate(cls, mn=4)
    monkeypatch.undo()
    assert len(calls) == 15 + 14 < 81
    assert report.success and report == per_point_sweep(cls, 6, 4)


WRONG = [
    # (class, wrong functional at (m, n) as a pair (builder, arguments)),
    # each argument reduced to what the table reads, as _FAMILIES reduces
    # them
    (HomClass(2, i=0, s1=0, s2=0), lambda m, n: (xi_parity, (0,))),
    (HomClass(3, i=0, s1=1, s2=1), lambda m, n: (xi_count, (n % 2,))),
    (HomClass(4, r1=1, r2=2, s1=0, s2=0), lambda m, n: (xi_congruence, (1, n % 2, 0))),
    (HomClass(4, r1=0, r2=0, s1=3, s2=0), lambda m, n: (xi_row, (2, n % 8))),
    (HomClass(4, r1=2, r2=-1, s1=1, s2=0), lambda m, n: (xi_column, (3, 0, m % 6, n % 2))),
    (HomClass(1, i=0, s1=2, s2=0), lambda m, n: (xi_congruence, (1, n % 2, 1))),
]


def _built(build, args):
    return build(*args)


def _with_wrong_functional(monkeypatch, wrong):
    """Patch _family so that the sweep keys its plans on wrong(m, n), a
    pair (builder, arguments), and builds builder(*arguments) for each."""
    original = certificate._family

    def family(c, verdict):
        label, data, _, _ = original(c, verdict)
        return label, data, _built, wrong

    monkeypatch.setattr(certificate, "_family", family)


@pytest.mark.parametrize("cls, wrong", WRONG)
def test_failures_match_reference(monkeypatch, cls, wrong):
    _with_wrong_functional(monkeypatch, wrong)
    report = check_certificate(cls, window=6, mn=2)
    assert report == reference_sweep(cls, 6, 2)
    assert not report.linear_killed
    assert any(kind in ("Ax", "Ay") for _, _, kind, _, _ in report.witnesses_of_failure)


# Z/3 tables without structure, one per n mod 3: f(C(m, n)) is 0 at about
# a third of the points, so a group of constant atoms kept under a key
# that misses what its value depends on lists a point that
# per_point_sweep does not list, or the reverse
_rng = random.Random(5)
NOISE = [
    Functional(tuple(tuple(_rng.randrange(3) for _ in range(3)) for _ in range(4)), 3)
    for _ in range(3)
]


@pytest.mark.parametrize(
    "cls",
    [
        HomClass(1, i=0, s1=1, s2=0),
        HomClass(2, i=0, s1=-1, s2=1),
        HomClass(3, i=0, s1=2, s2=1),
        HomClass(4, r1=1, r2=-2, s1=3, s2=0),
        HomClass(4, r1=2, r2=0, s1=0, s2=0),
    ],
    ids=lambda cls: cls.describe(),
)
def test_constant_matches_per_point_sweep_for_unstructured_functionals(monkeypatch, cls):
    _with_wrong_functional(monkeypatch, lambda m, n: (NOISE.__getitem__, (n % 3,)))
    report = check_certificate(cls, window=0, mn=4)
    zero = {(m, n) for m, n, part, _, _ in report.witnesses_of_failure if part == "C"}
    assert 0 < len(zero) < 81
    assert report == per_point_sweep(cls, 0, 4)


@pytest.mark.parametrize("cls, wrong", WRONG)
def test_failures_reused_across_residue_classes(monkeypatch, cls, wrong):
    # at mn = 2L + 1, L = lcm(2, pk, pl), every key (m mod Pm, n mod Pn)
    # of a plan holds several points, so the linear failures listed at one
    # point are listed again at the others.  Each plan, keyed on the
    # functional's arguments and the parity of n, evaluates its operators
    # once per point of its (Pm, Pn) box that the sweep meets
    period = lcm(2, *_built(*wrong(0, 0)).period)
    mn = 2 * period + 1
    _with_wrong_functional(monkeypatch, wrong)
    keys = []
    original = certificate._operators_at

    def counted(forms, m, n):
        pm, pn = certificate._periods(certificate._term_fields(forms, *_built(*wrong(m, n)).period))
        keys.append((wrong(m, n), n % 2, m % pm, n % pn))
        return original(forms, m, n)

    monkeypatch.setattr(certificate, "_operators_at", counted)
    report = check_certificate(cls, window=6, mn=mn)
    assert len(keys) == len(set(keys)) < (2 * mn + 1) ** 2
    points = itertools.product(range(-mn, mn + 1), repeat=2)
    assert {key[:2] for key in keys} == {(wrong(m, n), n % 2) for m, n in points}
    assert report == per_point_sweep(cls, 6, mn)
    assert not report.linear_killed
