"""Induced operators as term tables, against the per-basis maps they replaced.

The reference maps below send one basis vector to one signed basis vector,
exactly as the formulas in kernel.py's docstring read.  Sums and
compositions of term tables must act on every vector as the same sums and
compositions of the reference maps do, and exact operator equality must
reproduce the group laws of the maps for all (k, l).
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid.certificate import master_forms
from kleinbraid.kernel import (
    ID,
    RHO,
    KernelOperator,
    KernelVector,
    c_operator,
    theta_operator,
)
from kleinbraid.kleinpi import KleinElt, delta, eps

from common import PROFILE, build, exprs


# ---------------------------------------------------------------------------
# reference per-basis maps


def ref_theta_basis(m, n, k, l):
    return eps(n), (k, eps(n) * l - 2 * delta(k) * m)


def ref_rho_basis(k, l):
    return eps(k), (-k, eps(k + 1) * l)


def ref_c_basis(p, q, k, l):
    return 1, (k + p, l + eps(k) * q)


def ref_apply(expr, vec):
    """Apply an operator expression to vec through the reference maps."""
    kind = expr[0]
    if kind in ("+", "-", "@"):
        _, left, right = expr
        if kind == "@":
            return ref_apply(left, ref_apply(right, vec))
        lv, rv = ref_apply(left, vec), ref_apply(right, vec)
        return lv + rv if kind == "+" else lv - rv
    if kind == "id":
        return vec
    basis = {
        "c": lambda k, l: ref_c_basis(expr[1], expr[2], k, l),
        "theta": lambda k, l: ref_theta_basis(expr[1], expr[2], k, l),
        "rho": ref_rho_basis,
    }[kind]
    out = []
    for (k, l), x in vec.items():
        sign, key = basis(k, l)
        out.append((key, sign * x))
    return KernelVector(out)


vectors = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(-3, 3), min_size=1, max_size=5
).map(KernelVector)
BOX = range(-3, 4)


# ---------------------------------------------------------------------------
# property tests


@PROFILE
@given(exprs, vectors)
def test_term_tables_act_as_reference_maps(expr, vec):
    op = build(expr)
    assert op(vec) == ref_apply(expr, vec)
    for k, l in itertools.product(BOX, repeat=2):
        assert op(KernelVector.unit(k, l)) == ref_apply(expr, KernelVector.unit(k, l))


@PROFILE
@given(exprs, exprs, exprs)
def test_algebra_laws_hold_exactly(e1, e2, e3):
    a, b, c = build(e1), build(e2), build(e3)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a @ b) @ c == a @ (b @ c)
    assert (a + b) @ c == a @ c + b @ c
    assert a @ (b - c) == a @ b - a @ c
    assert ID @ a == a @ ID == a
    assert (a - a).terms == ({}, {})


# ---------------------------------------------------------------------------
# exact laws of the induced operators


def test_theta_is_an_action():
    for m1, n1, m2, n2 in itertools.product(BOX, repeat=4):
        t = KleinElt(m1, n1) * KleinElt(m2, n2)
        assert theta_operator(m1, n1) @ theta_operator(m2, n2) == theta_operator(t.m, t.n)


def test_shift_composition():
    for p, q, p2, q2 in itertools.product(BOX, repeat=4):
        assert c_operator(p, q) @ c_operator(p2, q2) == c_operator(p + p2, q2 + eps(p2) * q)


def test_identities():
    assert RHO @ RHO == ID
    assert c_operator(0, 0) == theta_operator(0, 0) == ID
    eq = master_forms(1, -1, 2, 1, 0, 0, 0).equation_at(-1, 2)
    for op in (eq.ax, eq.ay, RHO):
        assert (op - op).terms == ({}, {})
        assert op != op + op


def test_slopes_must_be_units():
    with pytest.raises(ValueError):
        KernelOperator([(1, 2, 0, 1, 0)], [])
    with pytest.raises(ValueError):
        KernelOperator([], [(1, 1, 0, 0, 0)])
