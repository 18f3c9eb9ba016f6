"""The obstruction equation as affine forms, against its δ/ε transcription.

The references below are derived_exponents, master_operators and
master_atoms as they read before master_forms held the equation: each
(m, n) point evaluates the δ and ε of the class data and of n.  With the
parity of n fixed, every integer in the equation is an affine form in
(m, n), so the evaluations of master_forms must equal the references
everywhere, and each atom field must read at most one of m and n.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid.certificate import (
    MasterEquation,
    MasterParams,
    _atom_groups,
    _atoms_at,
    _operators_at,
    build_master,
    derived_exponents,
    master_atoms,
    master_forms,
    master_operators,
)
from kleinbraid.kernel import _operator
from kleinbraid.kleinpi import delta, eps
from kleinbraid.suites import _grid_classes

from common import PROFILE


# ---------------------------------------------------------------------------
# the per-point transcription, as the reference


def ref_derived_exponents(p):
    r1, r2, s1, s2, i, j, m, n = p.r1, p.r2, p.s1, p.s2, p.i, p.j, p.m, p.n
    a1 = -2 * (delta(i + 1) * delta(j + 1) * delta(n + 1) * r1 + delta(i) * eps(n) * m)
    a2 = -4 * s1 - 2 * i
    b1 = delta(i + 1) * delta(j + 1) * eps(n) * r2 + 2 * delta(j + n + 1) * eps(j + 1) * m
    b2 = 2 * s2 - 2 * n + j
    g = delta(i + 1) * delta(j + 1) * r1 + eps(i) * m + eps(n + i) * a1
    return a1, a2, b1, b2, g


_IDENTITY = (1, 0, 1, 0)  # the key of ID's one term at each parity


def ref_master_operators(p):
    r1, i, j, n = p.r1, p.i, p.j, p.n
    a1, a2, b1, b2, g = ref_derived_exponents(p)
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


def ref_master_atoms(p):
    r1, s1, s2, i, j, m, n = p.r1, p.s1, p.s2, p.i, p.j, p.m, p.n
    a1, a2, b1, b2, g = ref_derived_exponents(p)
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


def _mismatches(data, points, ref_atoms=ref_master_atoms):
    """(class data, m, n, part) wherever the forms of master_forms,
    evaluated at (m, n), differ from the reference.  Each class builds its
    forms once per parity, as check_certificate does."""
    out = []
    for d in data:
        forms = [master_forms(*d, parity) for parity in (0, 1)]
        for m, n in points:
            p = MasterParams(*d, m, n)
            f = forms[n % 2]
            parts = (
                (
                    "derived",
                    tuple(c + cm * m + cn * n for c, cm, cn in f.derived),
                    ref_derived_exponents(p),
                ),
                ("operators", _operators_at(f, m, n), ref_master_operators(p)),
                ("atoms", _atoms_at(f.atoms, m, n), ref_atoms(p)),
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
    p = MasterParams(*data, m, n)
    ops, atoms = ref_master_operators(p), ref_master_atoms(p)
    assert derived_exponents(p) == ref_derived_exponents(p)
    assert master_operators(p) == ops
    assert master_atoms(p) == atoms
    assert build_master(p) == MasterEquation(*ops, atoms)


def test_comparison_sees_a_product_term():
    # one field that reads m·n is affine in neither variable, so no form
    # can equal it: the argument of the always-present o atom at k = 0
    def with_product(p):
        atoms = list(ref_master_atoms(p))
        at = atoms.index((1, 0, 0, "o", (-2 * p.s1 - p.i, delta(p.n + p.i - 1))))
        coef, pp, q, family, (k, l) = atoms[at]
        atoms[at] = (coef, pp, q, family, (k, l + p.m * p.n))
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


def test_atom_groups_hold_every_atom_and_read_only_their_variables():
    # the sweep keeps a group's value per value of the variables the group
    # reads, so its atoms must evaluate alike at points that differ only
    # in a variable it does not read, n moving by whole periods of 2
    for d in GRID_DATA[::7]:
        for parity in (0, 1):
            forms = master_forms(*d, parity)
            groups = _atom_groups(forms.atoms)
            grouped = [atom for _, atoms in groups for atom in atoms]
            assert sorted(grouped) == sorted(a for a in forms.atoms if a[0] != (0, 0, 0))
            for reads, atoms in groups:
                for m, n in POINTS:
                    n = 2 * n + parity
                    here = _atoms_at(atoms, m, n)
                    if not reads & 1:
                        assert _atoms_at(atoms, m + 3, n) == here, (d, reads)
                    if not reads & 2:
                        assert _atoms_at(atoms, m, n + 4) == here, (d, reads)
