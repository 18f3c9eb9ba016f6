"""Periodic functionals held as supports, and the certificate sweep.

The references below are the closure formulas the xi_* builders used
before they became data; the dense table, a functional's values on one
period box, with the row-by-row pullback and the residue counts of
on_atoms that the package ran before it held functionals as supports; the
per-basis sweep check_certificate ran before it read pulled-back
functionals, which builds op(e(k, l)) for every window point and applies
the functional to the materialised constant; and the per-point sweep it
ran before it took the points cell by cell, on dense tables.  Both sweeps
build the forms of their class once per parity of n and evaluate them at
each point.  The supports must agree with the formulas on boxes several
periods wide and with the dense tables on pullbacks, atoms and vectors;
pulling back must agree with applying the functional after the
operator; the functional on the constant's atoms must agree with the
functional on the projections of the family words moved by c_ab; and
each reference sweep must return the report of check_certificate,
failures included.
"""

import itertools
import random
from math import gcd, lcm
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# the dense reference

# the families' boxes as the reference reads them, bound here so that a
# test can hand the package other boxes without changing the reference's
DENSE_BOXES = dict(BOXES)


def _residue_counts(start, step, count, period):
    """(residue, multiplicity) of start + step·i mod period over i < count.
    The residues repeat with cycle period / gcd(step, period) and are
    distinct within one cycle, so one cycle gives all of them."""
    cycle = period // gcd(step, period)
    full, rest = divmod(count, cycle)
    return [((start + step * i) % period, full + (i < rest)) for i in range(min(count, cycle))]


class Table(NamedTuple):
    """A functional as its values on one period box: rows[k][l] for
    0 <= k < pk, 0 <= l < pl."""

    rows: tuple
    mod: int

    @classmethod
    def of(cls, f):
        pk, pl = f.period
        return cls(tuple(tuple(f.value(k, l) for l in range(pl)) for k in range(pk)), f.mod)

    @property
    def period(self):
        return len(self.rows), len(self.rows[0])

    def functional(self):
        """The same functional held as its support."""
        support = {(k, l): x for k, row in enumerate(self.rows) for l, x in enumerate(row) if x}
        return Functional(self.period, self.mod, support)

    def reduce(self, total):
        return total % self.mod if self.mod else total

    def value(self, k, l):
        row = self.rows[k % len(self.rows)]
        return row[l % len(row)]

    def __call__(self, vec):
        return self.reduce(sum(c * self.value(k, l) for (k, l), c in vec.items()))

    def on_atoms(self, atoms):
        # each box summed over the residue counts of its two progressions
        pk, pl = self.period
        total = 0
        for coef, p, q, family, args in atoms:
            for c, k0, dk, l0, dl, nk, nl in DENSE_BOXES[family](*args):
                k = k0 + p
                l = l0 - q if k0 & 1 else l0 + q
                cols = _residue_counts(l, dl, nl, pl)
                for a, x in _residue_counts(k, dk, nk, pk):
                    total += coef * c * x * sum(y * self.rows[a][b] for b, y in cols)
        return self.reduce(total)

    def pullback(self, op):
        # row k of f∘op over (lcm(2, pk), pl) is the sum over the terms at
        # the parity of k of c times row a·k + p, rotated by q, reversed
        # first and rotated by -1 - q where b = -1
        pk, pl = self.period
        rows = []
        for k in range(lcm(2, pk)):
            total = [0] * pl
            for (a, p, b, q), c in op.terms[k & 1].items():
                row = self.rows[(a * k + p) % pk]
                if b == -1:
                    row, q = row[::-1], -1 - q
                q %= pl
                total = [t + c * x for t, x in zip(total, row[q:] + row[:q])]
            rows.append(tuple(self.reduce(t) for t in total))
        return Table(tuple(rows), self.mod)


def _equation_at(data):
    """(m, n) -> the master equation of the class data, from its forms
    built once per parity of n."""
    forms = [master_forms(*data, parity) for parity in (0, 1)]
    return lambda m, n: forms[n % 2].equation_at(m, n)


def reference_sweep(cls, window, mn):
    """check_certificate as a per-basis sweep: every window point's image
    under Ax and Ay is built as a vector and the functional applied to it.
    Its own verdict must be the one its report reads off the failures."""
    family, data, build, _, args_at = certificate._family(cls, decide(cls))
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
    """check_certificate as it ran before it took the points cell by cell
    and held functionals as supports: every point builds its master
    equation, tabulates its functional and lists the nonzero entries of
    the dense table pulled back through its Ax and Ay."""
    family, data, build, _, args_at = certificate._family(cls, decide(cls))
    equation_at = _equation_at(data)
    failures = []
    coords = range(-window, window + 1)
    for m in range(-mn, mn + 1):
        for n in range(-mn, mn + 1):
            eq = equation_at(m, n)
            f = Table.of(build(*args_at(m, n)))
            for name, op in (("Ax", eq.ax), ("Ay", eq.ay)):
                pulled = f.pullback(op)
                if not any(map(any, pulled.rows)):
                    continue
                bad = [(k, l) for k in coords for l in coords if pulled.value(k, l)]
                if not bad:
                    pk, pl = pulled.period
                    bad = [(k, l) for k in range(pk) for l in range(pl) if pulled.rows[k][l]]
                failures.extend((m, n, name, k, l) for k, l in bad)
            if f.on_atoms(eq.atoms) == 0:
                failures.append((m, n, "C", 0, 0))
    return CertificateReport(family, (window, mn), tuple(sorted(failures)))


# ---------------------------------------------------------------------------
# supports against formulas


def test_tables_equal_formulas_on_several_periods():
    # each support lies in its box and holds nonzero weights, reduced when
    # mod > 0, and its values are the formula's
    for f, formula, period in functional_cases():
        assert f.period == period
        pk, pl = period
        for (a, b), w in f.support.items():
            assert 0 <= a < pk and 0 <= b < pl and w
            assert not f.mod or 0 < w < f.mod
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
    """A dense table with an arbitrary period box up to 6×9, odd k-periods
    included, Z-valued or reduced mod 2 or 3."""
    pk, pl = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    mod = draw(st.sampled_from((0, 2, 3)))
    values = st.integers(0, mod - 1) if mod else st.integers(-2, 2)
    row = st.lists(values, min_size=pl, max_size=pl).map(tuple)
    return Table(draw(st.lists(row, min_size=pk, max_size=pk).map(tuple)), mod)


def periodic_functionals():
    """periodic_tables turned into supports."""
    return periodic_tables().map(Table.functional)


functionals = st.one_of(
    periodic_functionals(),
    st.builds(xi_parity, st.integers(0, 1)),
    st.builds(xi_count, small),
    st.builds(xi_congruence, nonzero, small, st.integers(0, 1)),
    st.builds(xi_row, nonzero, small),
    st.builds(xi_column, st.integers(1, 3), small.map(lambda x: 2 * x), small, small),
)


# rows of nine columns: rotated by more than a period, reversed (rho at
# even k, theta with odd n) and reversed then rotated by more than a
# period; and two terms that read one row of a (2, 1) table, which add
WIDE_TABLE = Table(
    ((0, 1, 2, 0, 1, 1, 2, 0, 2), (1, 0, 0, 2, 2, 1, 0, 1, 0), (2, 2, 1, 0, 0, 0, 1, 1, 2)), 3
)
WIDE = WIDE_TABLE.functional()


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
    # RHO at even k and theta with odd n reverse l; a box more than two
    # columns wide tells a reversal from a shift
    asym = Table(((0, 1, 1), (1, 0, 0), (0, 0, 1)), 0).functional()
    fs = [asym] + [xi_column(r1, 0, m, n) for r1 in (2, 3) for m, n in ((1, 0), (-2, 1))]
    ops = [RHO, theta_operator(1, 1), c_operator(3, -2) @ RHO]
    for f, op in itertools.product(fs, ops):
        pulled = f.pullback(op)
        for k in range(-7, 8):
            for l in range(-7, 8):
                assert pulled.value(k, l) == f(op(KernelVector.unit(k, l)))


def test_pullback_composes():
    # (f∘A)∘B == f∘(A∘B): pulling back twice gives the same support
    f = xi_congruence(2, 1, 0)
    a, b = c_operator(3, -1) + RHO, theta_operator(2, 1) @ c_operator(-1, 2) - ID
    assert f.pullback(a).pullback(b) == f.pullback(a @ b)


def test_pullback_equality_sees_past_the_window():
    # a functional that is 1 only at k = 8 (mod 16) agrees with its pullback
    # through c(2, 0) on every e(k, l) with |k|, |l| <= 4, but not at k = 6
    spike = Functional((16, 1), 2, {(8, 0): 1})
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
@given(data=st.data(), f=periodic_functionals(), coef=st.integers(-3, 3), p=offsets, q=offsets)
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
    # as one value; period (4, 1) with dk = ±2 and nk > 1 visits two
    # residues of k, and period (2, 4) two to four residues of l
    fs = [
        Table(((1,), (2,), (0,), (-1,)), 0).functional(),
        xi_count(1),
        xi_column(2, 0, 1, 0),
        Table(((0, 1, 2, -1), (3, 0, -2, 1)), 0).functional(),
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


# ---------------------------------------------------------------------------
# supports against the dense tables

drawn_atoms = st.sampled_from(sorted(BOXES)).flatmap(
    lambda family: st.tuples(
        st.integers(-3, 3), offsets, offsets, st.just(family), FAMILY_ARGS[family]
    )
)
vectors = st.dictionaries(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)), st.sampled_from((-2, -1, 1, 3))
).map(KernelVector)


def _assert_agrees_with_dense(f, table, ops, atom_lists, vecs):
    """f, a support, and table, a dense table, agree on each pullback,
    each list of atoms and each vector."""
    for op in ops:
        assert f.pullback(op) == table.pullback(op).functional()
    for atom_list in atom_lists:
        assert f.on_atoms(atom_list) == table.on_atoms(atom_list)
    for vec in vecs:
        assert f(vec) == table(vec)


@PROFILE
@given(periodic_tables(), st.lists(exprs, max_size=2), st.lists(drawn_atoms, max_size=3), vectors)
@example(WIDE_TABLE, [("@", ("c", 2, -11), ("@", ("theta", -3, 1), ("rho",)))], [], KernelVector())
def test_support_equals_dense_table(table, expr_list, atom_list, vec):
    f = table.functional()
    assert Table.of(f) == table
    _assert_agrees_with_dense(f, table, [build(e) for e in expr_list], [atom_list], [vec])


# a Z/3 table of period (4, 3) and a Z-valued one of period (2, 1): the
# boxes of BREAK_ATOMS visit several residues of the first, and read the
# second as one value each, so both sides of the single-residue rule
# are compared
BREAK_TABLES = [
    Table(((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 1, 0)), 3),
    Table(((2,), (-1,)), 0),
]
BREAK_OPS = [ID, RHO, c_operator(1, 4), theta_operator(2, 1) @ RHO]
BREAK_ATOMS = [
    [(1, p, q, family, args)]
    for p, q in ((0, 0), (1, 2), (-3, 5))
    for family, args in (
        ("unit", (1, 1)), ("t", (5, 0)), ("t", (-4, 1)), ("i", (5,)), ("i", (-6,)),
        ("o", (3, -2)), ("o", (-4, 5)), ("j", (3, 4)), ("j", (-2, -3)), ("q", (2, 3)),
    )
]
BREAK_VECTORS = [KernelVector.unit(k, l) for k in range(-4, 4) for l in range(-3, 3)]


@pytest.mark.parametrize("table", BREAK_TABLES, ids=["Z/3 (4, 3)", "Z (2, 1)"])
def test_dense_comparison_sees_a_dropped_support_entry(table):
    f = table.functional()
    _assert_agrees_with_dense(f, table, BREAK_OPS, BREAK_ATOMS, BREAK_VECTORS)
    for key in f.support:
        dropped = {k: w for k, w in f.support.items() if k != key}
        broken = Functional(f.period, f.mod, dropped)
        with pytest.raises(AssertionError):
            _assert_agrees_with_dense(broken, table, BREAK_OPS, [], [])
        with pytest.raises(AssertionError):
            _assert_agrees_with_dense(broken, table, [], BREAK_ATOMS, [])
        with pytest.raises(AssertionError):
            _assert_agrees_with_dense(broken, table, [], [], BREAK_VECTORS)


@pytest.mark.parametrize("direction", ["k", "l"])
@pytest.mark.parametrize("table", BREAK_TABLES, ids=["Z/3 (4, 3)", "Z (2, 1)"])
def test_dense_comparison_sees_a_progression_miscounted_by_one(monkeypatch, table, direction):
    # the package reads each box with one more point in k (or in l) than
    # the dense reference does, on both sides of the single-residue rule
    def one_more(boxes):
        def counted(*args):
            out = []
            for c, k0, dk, l0, dl, nk, nl in boxes(*args):
                if direction == "k":
                    out.append((c, k0, dk, l0, dl, nk + 1, nl))
                else:
                    out.append((c, k0, dk, l0, dl, nk, nl + 1))
            return tuple(out)

        return counted

    f = table.functional()
    _assert_agrees_with_dense(f, table, [], BREAK_ATOMS, [])
    monkeypatch.setattr(certificate, "BOXES", {name: one_more(b) for name, b in BOXES.items()})
    with pytest.raises(AssertionError):
        _assert_agrees_with_dense(f, table, [], BREAK_ATOMS, [])


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


def _in_cells(cm, cn, wrong):
    """wrong, a wrong functional at (m, n) as a pair (builder, arguments),
    marked with the periods (Cm, Cn) of the cells that fix its arguments."""
    wrong.cells = (cm, cn)
    return wrong


WRONG = [
    # (class, wrong functional at (m, n) in its cells), each argument
    # reduced to what the support reads, as _FAMILIES reduces them
    (HomClass(2, i=0, s1=0, s2=0), _in_cells(1, 1, lambda m, n: (xi_parity, (0,)))),
    (HomClass(3, i=0, s1=1, s2=1), _in_cells(1, 2, lambda m, n: (xi_count, (n % 2,)))),
    (
        HomClass(4, r1=1, r2=2, s1=0, s2=0),
        _in_cells(1, 2, lambda m, n: (xi_congruence, (1, n % 2, 0))),
    ),
    (HomClass(4, r1=0, r2=0, s1=3, s2=0), _in_cells(1, 8, lambda m, n: (xi_row, (2, n % 8)))),
    (
        HomClass(4, r1=2, r2=-1, s1=1, s2=0),
        _in_cells(6, 2, lambda m, n: (xi_column, (3, 0, m % 6, n % 2))),
    ),
    (
        HomClass(1, i=0, s1=2, s2=0),
        _in_cells(1, 2, lambda m, n: (xi_congruence, (1, n % 2, 1))),
    ),
]


def _built(build, args):
    return build(*args)


def _with_wrong_functional(monkeypatch, wrong):
    """Patch _family so that the sweep takes its cells modulo wrong.cells,
    builds builder(*arguments) for each from wrong(m, n), a pair (builder,
    arguments), and reads the period box off the one at (0, 0)."""
    original = certificate._family

    def family(c, verdict):
        label, data, _, _, _ = original(c, verdict)
        return label, data, _built, (_built(*wrong(0, 0)).period, wrong.cells), wrong

    monkeypatch.setattr(certificate, "_family", family)


@pytest.mark.parametrize("cls, wrong", WRONG)
def test_failures_match_reference(monkeypatch, cls, wrong):
    _with_wrong_functional(monkeypatch, wrong)
    report = check_certificate(cls, window=6, mn=2)
    assert report == reference_sweep(cls, 6, 2)
    assert not report.linear_killed
    assert any(kind in ("Ax", "Ay") for _, _, kind, _, _ in report.witnesses_of_failure)


# Z/3 functionals without structure, one per n mod 3: f(C(m, n)) is 0 at about
# a third of the points, so a group of constant atoms kept under a key
# that misses what its value depends on lists a point that
# per_point_sweep does not list, or the reverse
_rng = random.Random(5)
NOISE = [
    Table(tuple(tuple(_rng.randrange(3) for _ in range(3)) for _ in range(4)), 3).functional()
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
    noise = _in_cells(1, 3, lambda m, n: (NOISE.__getitem__, (n % 3,)))
    _with_wrong_functional(monkeypatch, noise)
    report = check_certificate(cls, window=0, mn=4)
    zero = {(m, n) for m, n, part, _, _ in report.witnesses_of_failure if part == "C"}
    assert 0 < len(zero) < 81
    assert report == per_point_sweep(cls, 0, 4)


@pytest.mark.parametrize("cls, wrong", WRONG)
def test_failures_reused_across_residue_classes(monkeypatch, cls, wrong):
    # at mn = 2L + 1, L = lcm(2, pk, pl), every key (m mod Pm, n mod Pn)
    # of a cell holds several points, so the linear failures listed at one
    # point are listed again at the others.  Each cell, which fixes the
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


def test_constant_read_off_rows_and_columns(monkeypatch):
    # a Z/3 functional of period (2, 1) on this type-4 class: within a
    # cell every group of atoms reads at most one of m and n, so the sweep
    # evaluates each group once per key of the variable it reads, and
    # finds the zeros of the constant, 147 of the 441 points at mn = 10,
    # by looking up rows in an index of columns.  Its evaluations grow with
    # the side of the window, not with its area
    cls = HomClass(4, r1=1, r2=-2, s1=3, s2=0)
    f = Functional((2, 1), 3, {(0, 0): 1, (1, 0): 2})
    _, data, _, _, _ = certificate._family(cls, decide(cls))
    mn, side = 10, 21
    points = list(itertools.product(range(-mn, mn + 1), repeat=2))
    keys = 0
    for parity in (0, 1):
        forms = master_forms(*data, parity)
        _, _, groups = certificate._shape(*data[4:], parity, *f.period, f.mod)
        for indices, gm, gn in groups:
            assert gm == 1 or gn == 1
            if any(forms.atoms[x][0] != (0, 0, 0) for x in indices):
                cell = [(m, n) for m, n in points if n % 2 == parity]
                keys += len({(m % gm if gm else m, n % gn if gn else n) for m, n in cell})
    assert keys <= 2 * 3 * side
    constant = _in_cells(1, 1, lambda m, n: ((lambda: f), ()))
    _with_wrong_functional(monkeypatch, constant)
    calls = []
    atoms_at = certificate._atoms_at

    def counted(atoms, m, n):
        calls.append((m, n))
        return atoms_at(atoms, m, n)

    monkeypatch.setattr(certificate, "_atoms_at", counted)
    report = check_certificate(cls, window=0, mn=mn)
    monkeypatch.undo()
    assert len(calls) == keys
    zeros = [point for point in report.witnesses_of_failure if point[2] == "C"]
    assert len(zeros) == 147
    _with_wrong_functional(monkeypatch, constant)
    assert report == per_point_sweep(cls, 0, mn)
