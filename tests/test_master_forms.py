"""The obstruction equation as affine forms, against its δ/ε transcription.

The references below transcribe the equation point by point: each
(m, n) point evaluates the δ and ε of the class data and of n.  With the
parity of n fixed, every integer in the equation is an affine form in
(m, n), so the evaluations of master_forms must equal the references
everywhere, and each atom field must read at most one of m and n.

The certificate sweep reads its periods off the forms' coefficients.
Here they are found by probing instead, on what a pullback and on_atoms
read of the evaluated equation, and must agree; a coefficient the
periods do not see must change the sweep's report.
"""

import itertools
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid import certificate
from kleinbraid.certificate import (
    Functional,
    MasterEquation,
    _atoms_at,
    _operators_at,
    _periods,
    _shape,
    _term_fields,
    check_certificate,
    master_forms,
)
from kleinbraid.classifier import HomClass, decide
from kleinbraid.kernel import _operator
from kleinbraid.kleinpi import delta, eps
from kleinbraid.suites import _grid_classes

from common import PROFILE
from test_functionals import per_point_sweep, periodic_tables


# ---------------------------------------------------------------------------
# the per-point transcription, as the reference


def ref_derived(r1, r2, s1, s2, i, j, m, n):
    a1 = -2 * (delta(i + 1) * delta(j + 1) * delta(n + 1) * r1 + delta(i) * eps(n) * m)
    a2 = -4 * s1 - 2 * i
    b1 = delta(i + 1) * delta(j + 1) * eps(n) * r2 + 2 * delta(j + n + 1) * eps(j + 1) * m
    b2 = 2 * s2 - 2 * n + j
    g = delta(i + 1) * delta(j + 1) * r1 + eps(i) * m + eps(n + i) * a1
    return a1, a2, b1, b2, g


_IDENTITY = (1, 0, 1, 0)  # the key of ID's one term at each parity


def ref_operators(r1, r2, s1, s2, i, j, m, n):
    a1, a2, b1, b2, g = ref_derived(r1, r2, s1, s2, i, j, m, n)
    e, t = eps(n + i), eps(i)
    r = delta(i + 1) * delta(j + 1) * r1
    lam = a1 * e

    ax = _operator(
        {(1, a2 - b2, 1, a1 - b1): 1, (-1, 0, -e, 0): e},
        {(1, a2 - b2, 1, b1 - a1): 1, (-1, 0, e, -2 * g): -e},
    )
    # a term of Ay has the identity's key only with coefficient t = 1, and
    # then the two cancel
    ay = _operator(
        *(
            {} if key == _IDENTITY else {key: t, _IDENTITY: -1}
            for key in ((1, a2, t, lam), (1, a2, t, -2 * r - lam))
        )
    )
    return ax, ay


def ref_atoms(r1, r2, s1, s2, i, j, m, n):
    a1, a2, b1, b2, g = ref_derived(r1, r2, s1, s2, i, j, m, n)
    e, t = eps(n + i), eps(i)
    r = delta(i + 1) * delta(j + 1) * r1
    lam = a1 * e
    atoms = (
        (1, a2, 0, "t", (lam, delta(n + i))),
        (1, a2 - b2, 0, "o", (2 * s1 + i, a1 - b1)),
        (
            -delta(j + 1),
            a2 - b2,
            0,
            "o",
            (s2 - n, 2 * delta(i) * m - 2 * delta(i + 1) * delta(n + 1) * r1),
        ),
        (delta(j), a2 - b2, 0, "q", (-2 * delta(i) * m, s2 - n)),
        (1, a2, lam, "j", (delta(i + 1) * (n - s2), -2 * r)),
        (1, a2 - 1, -lam, "i", (-delta(i) * b2,)),
        (1, 0, delta(n + i + 1), "j", (-2 * s1 - i, 1 - 2 * g)),
        (1, 0, 0, "o", (-2 * s1 - i, delta(n + i - 1))),
        (delta(n + i) + delta(i) * e - g, 0, 0, "unit", (0, 0)),
        (delta(i) - delta(n + i) + t * m, 0, 0, "unit", (a2, lam)),
        (r - delta(i), 0, 0, "unit", (a2 - b2, a1 - b1)),
    )
    return tuple(a for a in atoms if a[0])


# ---------------------------------------------------------------------------
# evaluations against the reference


def _class_data(cls):
    """(r1, r2, s1, s2, i, j) of a class: i and j are the parities of its
    images' second coordinates, as check_certificate reads them."""
    n1, n2 = (img.n for img in cls.images())
    return cls.r1, cls.r2, cls.s1, cls.s2, n1 % 2, n2 % 2


GRID_DATA = sorted({_class_data(cls) for cls in _grid_classes(3)})
POINTS = list(itertools.product(range(-4, 5), repeat=2))


def _mismatches(data, points, reference_atoms=ref_atoms):
    """(class data, m, n, part) wherever the forms of master_forms,
    evaluated at (m, n), differ from the reference.  Each class builds its
    forms once per parity, as check_certificate does."""
    out = []
    for d in data:
        forms = [master_forms(*d, parity) for parity in (0, 1)]
        for m, n in points:
            f = forms[n % 2]
            parts = (
                (
                    "derived",
                    tuple(c + cm * m + cn * n for c, cm, cn in f.derived),
                    ref_derived(*d, m, n),
                ),
                ("operators", _operators_at(f, m, n), ref_operators(*d, m, n)),
                ("atoms", _atoms_at(f.atoms, m, n), reference_atoms(*d, m, n)),
            )
            out.extend((d, m, n, name) for name, got, want in parts if got != want)
    return out


def test_forms_evaluate_to_reference_on_grid():
    assert len(GRID_DATA) == 1519
    assert _mismatches(GRID_DATA, POINTS) == []


@PROFILE
@given(
    st.tuples(*[st.integers(-60, 60)] * 4, st.integers(0, 1), st.integers(0, 1)),
    st.integers(-200, 200),
    st.integers(-200, 200),
)
def test_evaluations_equal_reference(data, m, n):
    forms = master_forms(*data, n % 2)
    assert forms.derived_at(m, n) == ref_derived(*data, m, n)
    ops, atoms = ref_operators(*data, m, n), ref_atoms(*data, m, n)
    assert forms.equation_at(m, n) == MasterEquation(*ops, atoms)


def test_comparison_sees_a_product_term():
    # one field that reads m·n is affine in neither variable, so no form
    # can equal it: the argument of the always-present o atom at k = 0
    def with_product(r1, r2, s1, s2, i, j, m, n):
        atoms = list(ref_atoms(r1, r2, s1, s2, i, j, m, n))
        at = atoms.index((1, 0, 0, "o", (-2 * s1 - i, delta(n + i - 1))))
        coef, p, q, family, (k, l) = atoms[at]
        atoms[at] = (coef, p, q, family, (k, l + m * n))
        return tuple(atoms)

    bad = _mismatches(GRID_DATA[::50], POINTS, with_product)
    assert bad and {part for *_, part in bad} == {"atoms"}
    # m·n vanishes on the axes only
    assert {(m, n) for _, m, n, _ in bad} == {(m, n) for m, n in POINTS if m * n}


# ---------------------------------------------------------------------------
# the shape of the forms


@pytest.mark.parametrize("parity", [0, 1])
def test_atom_fields_read_at_most_one_variable(parity):
    reads = set()
    for d in GRID_DATA:
        for coef, p, q, _, args in master_forms(*d, parity).atoms:
            for _, cm, cn in (coef, p, q, *args):
                assert not (cm and cn), (d, parity)
                reads.add((bool(cm), bool(cn)))
    # both variables are read somewhere, and some fields read neither
    assert reads == {(False, False), (True, False), (False, True)}


def _coefficients(forms):
    """Every (cm, cn) of the forms, in order."""
    fields = list(forms.derived)
    for tables in (forms.ax, forms.ay):
        for terms in tables:
            fields += [field for _, _, p, _, q in terms for field in (p, q)]
    for coef, p, q, _, args in forms.atoms:
        fields += [coef, p, q, *args]
    return [(cm, cn) for _, cm, cn in fields]


def test_coefficients_depend_on_i_j_and_parity_alone():
    # _shape reads the periods off the forms of class data 0
    for d in GRID_DATA:
        for parity in (0, 1):
            zero = master_forms(0, 0, 0, 0, *d[4:], parity)
            assert _coefficients(master_forms(*d, parity)) == _coefficients(zero), (d, parity)


def test_atom_groups_hold_every_atom_and_read_only_their_variables():
    # each atom is in one group, one group per pair of periods; a group of
    # period 1 in a variable reads the same of its atoms (as on_atoms reads
    # them) at points that differ only in that variable, n moving by whole
    # periods of 2
    shapes = [((2, 1), 0), ((2, 1), 2), ((4, 1), 2), ((12, 1), 2), ((2, 6), 2), ((3, 4), 3)]
    for d in GRID_DATA[::40]:
        for parity in (0, 1):
            forms = master_forms(*d, parity)
            for (pk, pl), mod in shapes:
                _, _, groups = _shape(*d[4:], parity, pk, pl, mod)
                assert sorted(x for indices, _, _ in groups for x in indices) == list(range(11))
                assert len({(gm, gn) for _, gm, gn in groups}) == len(groups)
                f = Functional(((0,) * pl,) * pk, mod)
                for indices, gm, gn in groups:
                    read = _read_by_on_atoms([forms.atoms[x] for x in indices], f)
                    for m, n in POINTS:
                        n = 2 * n + parity
                        if gm == 1:
                            assert read(m + 3, n) == read(m, n), (d, pk, pl, mod, indices)
                        if gn == 1:
                            assert read(m, n + 4) == read(m, n), (d, pk, pl, mod, indices)


# ---------------------------------------------------------------------------
# periods read off the coefficients, against probing


BU_CLASSES = [cls for cls in _grid_classes(3) if decide(cls).bu]
BOX = list(itertools.product(range(-2, 3), repeat=2))


def _least_periods(read, bound):
    """(Pm, Pn): the least P <= bound such that read takes the same value
    at (m + P, n), resp. (m, n + P), as at (m, n) for every (m, n) in BOX,
    0 where no P <= bound does."""

    def least(dm, dn):
        for p in range(1, bound + 1):
            if all(read(m + p * dm, n + p * dn) == read(m, n) for m, n in BOX):
                return p
        return 0

    return least(1, 0), least(0, 1)


def _sweep_of(cls):
    """(class data, functional at (m, n)) as check_certificate reads them."""
    _, data, build, args_at = certificate._family(cls, decide(cls))
    return data, lambda m, n: build(*args_at(m, n))


def _read_by_pullback(forms, f):
    # the entries of Ax and Ay as a pullback reads them, offsets reduced
    # modulo the period box
    pk, pl = f.period

    def read(m, n):
        return [
            sorted((a, p % pk, b, q % pl, c) for (a, p, b, q), c in terms.items())
            for op in _operators_at(forms, m, n)
            for terms in op.terms
        ]

    return read


def _read_by_on_atoms(atoms, f):
    # each atom as on_atoms reads it: the coefficient mod f.mod, the
    # offsets mod the period box, a unit's (k, l) mod (lcm(2, pk), pl), and
    # the other families' arguments whole
    pk, pl = f.period

    def at(form, m, n, modulus=0):
        c, cm, cn = form
        value = c + cm * m + cn * n
        return value % modulus if modulus else value

    def read(m, n):
        out = []
        for coef, p, q, family, args in atoms:
            if family == "unit":
                moduli = (lcm(2, pk), pl)
            else:
                moduli = (0,) * len(args)
            out.append(
                (
                    at(coef, m, n, f.mod),
                    at(p, m, n, pk),
                    at(q, m, n, pl),
                    family,
                    tuple(at(a, m, n, mod) for a, mod in zip(args, moduli)),
                )
            )
        return out

    return read


@PROFILE
@given(
    st.sampled_from(BU_CLASSES),
    st.integers(0, 1),
    st.integers(-12, 12),
    st.integers(-6, 6),
    st.one_of(st.none(), periodic_tables()),
)
def test_periods_equal_least_periods_by_probing(cls, parity, m, t, table):
    # the class's functional at a point of the parity, or an arbitrary
    # table, odd periods and Z/3 values included
    data, functional_at = _sweep_of(cls)
    f = table or functional_at(m, 2 * t + parity)
    forms = master_forms(*data, parity)
    pk, pl = f.period
    bound = lcm(2, pk, pl, f.mod or 1)  # every modulus divides it
    pm, pn, groups = _shape(*data[4:], parity, pk, pl, f.mod)
    assert (pm, pn) == _least_periods(_read_by_pullback(forms, f), bound)
    for indices, gm, gn in groups:
        read = _read_by_on_atoms([forms.atoms[x] for x in indices], f)
        assert (gm, gn) == _least_periods(read, bound)


def test_linear_periods_of_a_sweep_by_branch():
    # over the whole sweep, the functional and the term tables of both
    # parities repeat with the periods of experiment 1 in ROADMAP.md,
    # L = lcm(2, pk, pl): the functional's period is probed, those of the
    # term tables are read off their forms
    expected = {
        "(a)": lambda L: (1, 2),
        "(b)": lambda L: (1, 2),
        "(d)(i)": lambda L: (1, 2),
        "(c)": lambda L: (1, L // 2),
        "(d)(ii)": lambda L: (1, L),
        "(d)(iii)": lambda L: (L, 2),
    }
    branches = set()
    for cls in BU_CLASSES:
        data, functional_at = _sweep_of(cls)
        pk, pl = functional_at(0, 0).period
        big = lcm(2, pk, pl)
        pm, pn = _least_periods(functional_at, big)
        for parity in (0, 1):
            fm, fn = _periods(_term_fields(master_forms(*data, parity), pk, pl))
            pm, pn = lcm(pm, fm), lcm(pn, fn)
        branch = decide(decide(cls).representative).branch
        assert (pm, lcm(2, pn)) == expected[branch](big), cls
        branches.add(branch)
    assert branches == set(expected)


def _with_m_in(field):
    """A wrapper of _operators_at or _atoms_at that evaluates the forms
    with m added to the offset p of Ax's c-term, or to the k argument of
    every unit atom: a coefficient the sweep's periods, read off the forms
    it built, do not see."""
    if field == "offset":
        original = certificate._operators_at

        def moved(forms, m, n):
            ax = []
            for (c, a, (p, pm, pn), b, q), *rest in forms.ax:
                ax.append(((c, a, (p, pm + 1, pn), b, q), *rest))
            return original(forms._replace(ax=tuple(ax)), m, n)

        return "_operators_at", moved
    original = certificate._atoms_at

    def moved(atoms, m, n):
        out = []
        for coef, p, q, family, args in atoms:
            if family == "unit":
                (k, km, kn), l = args
                args = ((k, km + 1, kn), l)
            out.append((coef, p, q, family, args))
        return original(out, m, n)

    return "_atoms_at", moved


@pytest.mark.parametrize("field", ["offset", "unit argument"])
def test_sweep_sees_a_coefficient_its_periods_miss(monkeypatch, field):
    # type 1 at (a), xi_parity(0): Ax's offsets, and the last unit atom at
    # even n, are read mod 2 and read no m, so their periods in m are 1;
    # with m added the sweep keeps one value where per_point_sweep sees
    # both parities of m
    cls = HomClass(1, i=0, s1=1, s2=0)
    assert check_certificate(cls) == per_point_sweep(cls, 6, 4)
    name, moved = _with_m_in(field)
    monkeypatch.setattr(certificate, name, moved)
    assert check_certificate(cls) != per_point_sweep(cls, 6, 4)
