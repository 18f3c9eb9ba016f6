"""Bounded certification of the Borsuk-Ulam property.

If a class fails the property, its witness pair forces an equation in the
abelianised kernel that is linear in two unknown vectors x, y:

    Ax(x) + Ay(y) + C(m, n) = 0        for some integers m, n,

where Ax, Ay and the constant C are assembled from the induced operators
and the T/I/O/J/Q families.  A certificate for the property runs the
contrapositive: a class-specific linear functional is shown to kill Ax
and Ay on every basis vector e(k, l) while staying nonzero on C for
every (m, n) in a parameter window.  The (m, n) window is what keeps the
verification finite, so reports always carry it; the coordinate window
they also carry only bounds which failures of the linear part are listed.

The general equation depends on the class data (r1, r2, s1, s2, i, j)
and the quantified pair (m, n).  Once the parity of n is fixed, every δ
and ε in it is a constant, so master_forms writes the whole equation
once per parity as integer affine forms c + cm·m + cn·n: the derived
exponents, the offsets of the term tables of Ax and Ay (two terms per
parity of k, signs and slopes fixed), and every field of every atom of
the constant.  MasterForms.derived_at and equation_at evaluate those
forms at a point; a per-point δ/ε transcription, and the compositions of
c, theta, rho and id that define Ax and Ay, are the tests' reference.
Each atom field reads at most one of m and n.  The three per-family
transcriptions below return the specialised equations as MasterEquation
too, written independently: their operators composed from the induced
operators or, for mu/nu, displayed, and their constants as atoms
transcribed term for term from the specialised constants
(even_even_atoms for the type-4 one, which the xi-count check reads
alone).  Their exact equality with the evaluated forms is part of the
test surface.

Every functional is periodic in (k, l), so a Functional is a table of its
values on one period box.  Pulling it back through a term table gives
f∘A as another small periodic table, since the ±1 slopes of A keep the
parity of k and move k and l by whole periods.  The certificate sweep
reads the linear part off the whole pulled-back tables of Ax and Ay, so
it covers every (k, l).

A MasterEquation holds its constant as data: a tuple of atoms (coef, p,
q, family, args), each standing for coef·c(p, q)(tilde_family(args)).
MasterEquation.constant, the one place the constant becomes a vector,
materialises them for the cross-checks, and the sweep applies the
functional to the atoms themselves (Functional.on_atoms): each family's
support is a few arithmetic-progression boxes, and summing a periodic
table over a box needs only the residue counts of its two progressions
over one period, so f(C(m, n)) costs the same however large the family
arguments are.

The sweep builds the forms of both parities once, and evaluates only
what changes from point to point.  It keeps one plan per argument of the
family's functional and parity of n, built with its functional the
first time the sweep meets that pair.  With the parity fixed, every
integer the evaluation reads is an affine form, and the evaluation reads
most of them modulo something: an offset p modulo pk and an offset q
modulo pl (in the term tables of Ax and Ay and in the atoms), an atom
coefficient modulo f.mod when mod > 0, and the two arguments of a
"unit" atom modulo lcm(2, pk) and pl.  A form whose m
coefficient is c, read modulo M, repeats when m moves by M / gcd(c, M),
so a piece of the equation repeats in m with the lcm of that over the
fields that read m, and likewise in n: its periods are read off the
coefficients, not found by probing.  The other box arguments set counts
and signs and are read whole, so a variable read there is keyed by its
full value.

The plan keeps the linear failures per (m mod Pm, n mod Pn), the periods
of the term tables: each offset reduced modulo the functional's period
box is all that a pullback reads, so the points of one key share their
pulled-back tables, and a plan pulls its functional back through Ax and
Ay once per key.  The constant is evaluated in groups of atoms, one per
pair (Gm, Gn) of an atom's own periods, 1 for a variable it does not
read and 0 for one it reads whole.  The coefficients cm and cn depend on
(i, j, parity) alone, so the groups and every period are worked out once
per (i, j, parity) and functional shape (pk, pl, mod), not once per
sweep.  f(C(m, n)) is the sum of f over the groups, and the plan keeps
each group's value per (m mod Gm, n mod Gn), a variable of period 0
taken whole: a group is evaluated once per such key.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, lcm
from typing import Callable, Iterable, List, NamedTuple, Tuple

from .braid import check_h
from .classifier import HomClass, Verdict, decide
from .kernel import (
    BOXES,
    ID,
    RHO,
    Atom,
    KernelOperator,
    KernelVector,
    _combine,
    _from_boxes,
    _operator,
    c_ab,
    c_operator,
    theta_operator,
)
from .kleinpi import delta, eps


@dataclass(frozen=True)
class Functional:
    """Linear functional on kernel vectors, periodic in (k, l): its value
    on e(k, l) is table[k % pk][l % pl] for the period box (pk, pl) =
    (len(table), len(table[0])).  mod == 0 means Z-valued, mod == 2 means
    Z/2-valued."""

    table: Tuple[Tuple[int, ...], ...]
    mod: int

    @property
    def period(self) -> Tuple[int, int]:
        return len(self.table), len(self.table[0])

    def value(self, k: int, l: int) -> int:
        row = self.table[k % len(self.table)]
        return row[l % len(row)]

    def __call__(self, vec: KernelVector) -> int:
        table = self.table
        pk, pl = self.period
        total = sum(c * table[k % pk][l % pl] for (k, l), c in vec.items())
        return total % self.mod if self.mod else total

    def on_atoms(self, atoms: Iterable[Atom]) -> int:
        """f(Σ coef·c(p, q)(tilde_family(args))) over the atoms, read off
        the families' progression boxes without building a vector.

        c(p, q) moves a box to the box at (k0 + p, l0 + ε(k0)·q), and the
        value of f on a box is Σ count_k(a)·count_l(b)·table[a][b] over the
        residues a, b of its two progressions.  Most boxes have a cycle of
        one residue in both directions (one row or column, or a step that
        is a whole number of periods, as dk = 2 is for pk = 2), and such a
        box is nk·nl times one table entry."""
        table, mod = self.table, self.mod
        pk, pl = self.period
        total = 0
        for coef, p, q, family, args in atoms:
            for c, k0, dk, l0, dl, nk, nl in BOXES[family](*args):
                k = k0 + p
                l = l0 - q if k0 & 1 else l0 + q
                if (nk == 1 or dk % pk == 0) and (nl == 1 or dl % pl == 0):
                    total += coef * c * nk * nl * table[k % pk][l % pl]
                    continue
                cols = _residue_counts(l, dl, nl, pl)
                box = 0
                for a, x in _residue_counts(k, dk, nk, pk):
                    row = table[a]
                    for b, y in cols:
                        box += x * y * row[b]
                total += coef * c * box
        return total % mod if mod else total

    def pullback(self, op: KernelOperator) -> "Functional":
        """f∘op, tabulated over the period box (lcm(2, pk), pl), row by row.

        An entry (a, p, b, q): c at the parity of k sends e(k, l) to
        c·e(a·k + p, b·l + q); with a, b = ±1, moving k by a multiple of
        lcm(2, pk) keeps its parity and moves a·k + p by a multiple of pk,
        and moving l by pl moves b·l + q by pl, so one box holds every
        value of f∘op.  Row k of f∘op is the sum, over the entries at the
        parity of k, of c times row a·k + p of the table rotated by q, so
        that its entry l is the row's at l + q; for b = -1 the row is
        reversed first, whose entry l is the row's at -1 - l, and rotated
        by -1 - q."""
        table, mod = self.table, self.mod
        pk, pl = self.period
        rk = lcm(2, pk)
        _check_table(rk, pl)
        rows = []
        for k in range(rk):
            total = [0] * pl
            for (a, p, b, q), c in op.terms[k & 1].items():
                row = table[(a * k + p) % pk]
                if b == -1:
                    row, q = row[::-1], -1 - q
                q %= pl
                total = [t + c * x for t, x in zip(total, row[q:] + row[:q])]
            rows.append(tuple([t % mod for t in total] if mod else total))
        return Functional(tuple(rows), mod)


def _residue_counts(start: int, step: int, count: int, period: int) -> List[Tuple[int, int]]:
    """(residue, multiplicity) of start + step·i mod period over i < count.
    The residues repeat with cycle period / gcd(step, period) and are
    distinct within one cycle, so one cycle gives all of them."""
    cycle = period // gcd(step, period)
    full, rest = divmod(count, cycle)
    return [((start + step * i) % period, full + (i < rest)) for i in range(min(count, cycle))]


def _check_table(pk: int, pl: int) -> None:
    """Refuse a table of period box (pk, pl) over half the sweep budget,
    since a sweep pulls back at least two tables at least as large."""
    if 2 * pk * pl > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"a table of {pk * pl} entries exceeds half the budget of {MAX_SWEEP_ENTRIES} "
            "table entries of a certificate sweep"
        )


def _tabulate(
    period: Tuple[int, int], on_basis: Callable[[int, int], int], mod: int
) -> Functional:
    pk, pl = period
    _check_table(pk, pl)
    table = tuple(tuple(on_basis(k, l) for l in range(pl)) for k in range(pk))
    return Functional(table, mod)


@dataclass(frozen=True)
class MasterEquation:
    ax: KernelOperator
    ay: KernelOperator
    atoms: Tuple[Atom, ...]  # the constant, as (coef, p, q, family, args)

    @property
    def constant(self) -> KernelVector:
        """C(m, n) as a vector: each atom's boxes materialised, then moved
        by the operator c_ab, not by the box move that on_atoms makes, and
        the atoms summed in one _combine."""
        return _combine(
            *(
                (coef, c_ab(p, q, _from_boxes(BOXES[family](*args))))
                for coef, p, q, family, args in self.atoms
            )
        )


Form = Tuple[int, int, int]  # (c, cm, cn), standing for c + cm·m + cn·n
TermForm = Tuple[int, int, Form, int, Form]  # (coef, a, p, b, q), offsets as forms
AtomForm = Tuple[Form, Form, Form, str, Tuple[Form, ...]]  # (coef, p, q, family, args)


class MasterForms(NamedTuple):
    """The obstruction equation of one class for every n of one parity,
    each integer in it an affine form in (m, n): the derived exponents
    (a1, a2, b1, b2, g), the term tables of Ax and Ay as terms per parity
    of k, and the atoms of the constant, zero coefficients included.
    derived_at and equation_at refuse an n of the other parity."""

    parity: int
    derived: Tuple[Form, ...]
    ax: Tuple[Tuple[TermForm, ...], Tuple[TermForm, ...]]
    ay: Tuple[Tuple[TermForm, ...], Tuple[TermForm, ...]]
    atoms: Tuple[AtomForm, ...]

    def _check(self, n: int) -> None:
        if n & 1 != self.parity:
            raise ValueError(f"n = {n} is not of the forms' parity {self.parity}")

    def derived_at(self, m: int, n: int) -> Tuple[int, int, int, int, int]:
        """(a1, a2, b1, b2, g) at (m, n)."""
        self._check(n)
        return tuple([c + cm * m + cn * n for c, cm, cn in self.derived])

    def equation_at(self, m: int, n: int) -> MasterEquation:
        """The obstruction equation at (m, n): operators and nonzero atoms."""
        self._check(n)
        return MasterEquation(*_operators_at(self, m, n), _atoms_at(self.atoms, m, n))


_ZERO: Form = (0, 0, 0)
_ONE: Form = (1, 0, 0)


def master_forms(r1: int, r2: int, s1: int, s2: int, i: int, j: int, parity: int) -> MasterForms:
    """The obstruction equation for n ≡ parity (mod 2), as affine forms.

    Every δ and ε of n is fixed by the parity, so each exponent, offset
    and atom field is c + cm·m + cn·n with integer coefficients, written
    here as its triple.  With e = ε(n+i), t = εi and r = δ(i+1)δ(j+1)r1,

        a1 = -2(δ(n+1)·r + δi·εn·m)       a2 = -4s1 - 2i
        b1 = δ(i+1)δ(j+1)εn·r2 + 2δ(j+n+1)ε(j+1)·m
        b2 = 2s2 - 2n + j                  g = r + t·m + e·a1

    and λ = e·a1.  The operators are

        Ax = c(a2 - b2, a1 - b1) + theta(g, δ(n+i))∘rho
        Ay = c(a2, λ)∘theta(r, δi) - id

    written as their terms: one c-term and one theta∘rho-term per parity
    of k for Ax, one c∘theta-term and the identity's -1 for Ay.  This is
    the one transcription of the equation's δ and ε.  i, j and parity
    must each be 0 or 1."""
    if i not in (0, 1) or j not in (0, 1) or parity not in (0, 1):
        raise ValueError(f"i, j and parity must be 0 or 1, got i={i}, j={j}, parity={parity}")
    dn = parity
    d_ni = (dn + i) % 2  # δ(n+i)
    en = 1 - 2 * dn  # εn
    e = 1 - 2 * d_ni  # ε(n+i)
    t = 1 - 2 * i  # εi
    u = (1 - i) * (1 - j)  # δ(i+1)δ(j+1)
    r = u * r1
    a1, a1m = -2 * (1 - dn) * r, -2 * i * en
    a2 = -4 * s1 - 2 * i
    b1, b1m = u * en * r2, 2 * ((j + dn + 1) % 2) * (2 * j - 1)
    b2 = 2 * s2 + j  # the constant of b2, whose n-coefficient is -2
    g, gm = r + e * a1, t + e * a1m
    lam_c, lam_m = e * a1, e * a1m
    lam = (lam_c, lam_m, 0)
    shift = (a2 - b2, 0, 2)  # a2 - b2
    diff = (a1 - b1, a1m - b1m, 0)  # a1 - b1
    s2_less_n = (s2, 0, -1)
    d_ni1 = 1 - d_ni  # δ(n+i+1), which is δ(n+i-1)
    return MasterForms(
        parity=parity,
        derived=((a1, a1m, 0), (a2, 0, 0), (b1, b1m, 0), (b2, 0, -2), (g, gm, 0)),
        ax=(
            ((1, 1, shift, 1, diff), (e, -1, _ZERO, -e, _ZERO)),
            ((1, 1, shift, 1, (b1 - a1, b1m - a1m, 0)), (-e, -1, _ZERO, e, (-2 * g, -2 * gm, 0))),
        ),
        ay=(
            ((t, 1, (a2, 0, 0), t, lam), (-1, 1, _ZERO, 1, _ZERO)),
            ((t, 1, (a2, 0, 0), t, (-2 * r - lam_c, -lam_m, 0)), (-1, 1, _ZERO, 1, _ZERO)),
        ),
        atoms=(
            (_ONE, (a2, 0, 0), _ZERO, "t", (lam, (d_ni, 0, 0))),
            (_ONE, shift, _ZERO, "o", ((2 * s1 + i, 0, 0), diff)),
            (
                (j - 1, 0, 0),
                shift,
                _ZERO,
                "o",
                (s2_less_n, (-2 * (1 - i) * (1 - dn) * r1, 2 * i, 0)),
            ),
            ((j, 0, 0), shift, _ZERO, "q", ((0, -2 * i, 0), s2_less_n)),
            (_ONE, (a2, 0, 0), lam, "j", ((-(1 - i) * s2, 0, 1 - i), (-2 * r, 0, 0))),
            (_ONE, (a2 - 1, 0, 0), (-lam_c, -lam_m, 0), "i", ((-i * b2, 0, 2 * i),)),
            (_ONE, _ZERO, (d_ni1, 0, 0), "j", ((-2 * s1 - i, 0, 0), (1 - 2 * g, -2 * gm, 0))),
            (_ONE, _ZERO, _ZERO, "o", ((-2 * s1 - i, 0, 0), (d_ni1, 0, 0))),
            ((d_ni + i * e - g, -gm, 0), _ZERO, _ZERO, "unit", (_ZERO, _ZERO)),
            ((i - d_ni, t, 0), _ZERO, _ZERO, "unit", ((a2, 0, 0), lam)),
            ((r - i, 0, 0), _ZERO, _ZERO, "unit", (shift, diff)),
        ),
    )


def _atoms_at(atoms: Iterable[AtomForm], m: int, n: int) -> Tuple[Atom, ...]:
    """The atoms at (m, n) of atom forms, those of coefficient 0 left out."""
    out = []
    for (c, cm, cn), (p, pm, pn), (q, qm, qn), family, args in atoms:
        coef = c + cm * m + cn * n
        if coef:
            out.append(
                (
                    coef,
                    p + pm * m + pn * n,
                    q + qm * m + qn * n,
                    family,
                    tuple([a + am * m + an * n for a, am, an in args]),
                )
            )
    return tuple(out)


def _operators_at(forms: MasterForms, m: int, n: int) -> Tuple[KernelOperator, KernelOperator]:
    """Ax and Ay at (m, n): each term's offsets evaluated, and the terms of
    one parity of k merged, zero sums left out.  A term of Ay has the
    identity's key only with coefficient t = 1, and then the two cancel."""
    ops = []
    for tables in (forms.ax, forms.ay):
        merged = []
        for terms in tables:
            table: dict = {}
            for c, a, (p, pm, pn), b, (q, qm, qn) in terms:
                key = (a, p + pm * m + pn * n, b, q + qm * m + qn * n)
                total = table.pop(key, 0) + c
                if total:
                    table[key] = total
            merged.append(table)
        ops.append(_operator(*merged))
    return tuple(ops)


# ---------------------------------------------------------------------------
# per-family equations, transcribed independently of master_forms


def equation_first_odd(s: int, z: int, w: int, m: int, n: int) -> MasterEquation:
    """Equation for classes (1,0) ↦ (0, 2s+1), (0,1) ↦ (0, (2z+1)w).

    Covers type 1 at the even representative (w = 0) and type 2 (w = 1).
    The constant is transcribed as atoms; cross-checked against
    master_forms with i = 1, j = w, s1 = s, s2 = z·w.
    """
    shift = 2 * n - (2 * z + 1) * w - 4 * s - 2
    lam = 2 * m * eps(w) * delta(n + w)
    ax = c_operator(shift, lam) + theta_operator(m, delta(n + 1)) @ RHO
    ay = c_operator(-4 * s - 2, 2 * m) @ theta_operator(0, 1) - ID
    atoms = (
        (1, -4 * s - 2, 0, "t", (2 * m, delta(n + 1))),
        (1, shift, 0, "o", (2 * s + 1, lam)),
        (-delta(w + 1), shift, 0, "o", (z * w - n, 2 * m)),
        (delta(w), shift, 0, "q", (-2 * m, z * w - n)),
        (1, -4 * s - 3, -2 * m, "i", (2 * n - (2 * z + 1) * w,)),
        (1, 0, delta(n), "j", (-2 * s - 1, 1 - 2 * m)),
        (1, 0, 0, "o", (-2 * s - 1, delta(n))),
        (delta(n) - m, 0, 0, "unit", (0, 0)),
        (delta(n) - m, 0, 0, "unit", (-4 * s - 2, 2 * m)),
        (-1, 0, 0, "unit", (shift, lam)),
    )
    return MasterEquation(ax, ay, atoms)


def equation_even_odd(s: int, z: int, m: int, n: int) -> MasterEquation:
    """Equation for classes (1,0) ↦ (0, 2s), (0,1) ↦ (0, 2z+1) (type 3).

    The constant is transcribed as atoms; cross-checked against
    master_forms with i = 0, j = 1, s1 = s, s2 = z.
    """
    ax = (
        c_operator(2 * n - 2 * z - 4 * s - 1, -2 * delta(n) * m)
        + theta_operator(m, delta(n)) @ RHO
    )
    ay = c_operator(-4 * s, 0) - ID
    atoms = (
        (1, 2 * n - 2 * z - 4 * s - 1, 0, "o", (2 * s, -2 * delta(n) * m)),
        (1, 0, delta(n + 1), "j", (-2 * s, 1 - 2 * m)),
        (1, 0, 0, "o", (-2 * s, delta(n + 1))),
        (m - delta(n), 0, 0, "unit", (-4 * s, 0)),
        (delta(n) - m, 0, 0, "unit", (0, 0)),
    )
    return MasterEquation(ax, ay, atoms)


def mu_nu_operators(r1: int, r2: int, s: int, z: int, m: int, n: int):
    """The displayed forms of the two linear operators of the type-4
    equation, as term tables read off per parity of k from

        mu: e(k, l) ↦ e(k+2n-2z-4s, l+εk·λ) + ε(k+n)·e(-k, ε(k+n+1)·l - 2δk·(m+ε(n+1)r1))
        nu: e(k, l) ↦ e(k-4s, l - 2δ(n+k+1)·r1) - e(k, l),    λ = 2δ(n+1)(m-r1) + ε(n+1)r2

    and not from c_operator/theta_operator/RHO, since they must equal the
    compositional definitions, whose tables master_forms writes directly:

        mu = c(2n-2z-4s, λ) + theta(m+ε(n+1)r1, δn)∘rho
        nu = c(-4s, -2δ(n+1)r1)∘theta(r1, 0) - id
    """
    shift = 2 * n - 2 * z - 4 * s
    lam = 2 * delta(n + 1) * (m - r1) + eps(n + 1) * r2
    mu = KernelOperator(
        [(1, 1, shift, 1, lam), (eps(n), -1, 0, eps(n + 1), 0)],
        [(1, 1, shift, 1, -lam), (-eps(n), -1, 0, eps(n), -2 * (m + eps(n + 1) * r1))],
    )
    nu = KernelOperator(
        [(1, 1, -4 * s, 1, -2 * delta(n + 1) * r1), (-1, 1, 0, 1, 0)],
        [(1, 1, -4 * s, 1, -2 * delta(n) * r1), (-1, 1, 0, 1, 0)],
    )
    return mu, nu


def even_even_atoms(r1: int, r2: int, s: int, z: int, m: int, n: int) -> Tuple[Atom, ...]:
    """The constant of the type-4 equation, as atoms transcribed term for
    term from the specialised constant."""
    lam = 2 * delta(n + 1) * (m - r1) + eps(n + 1) * r2
    return (
        (1, -4 * s, 0, "t", (-2 * delta(n + 1) * r1, delta(n))),
        (1, 2 * n - 2 * z - 4 * s, 0, "o", (2 * s, lam)),
        (-1, 2 * n - 2 * z - 4 * s, 0, "o", (z - n, -2 * delta(n + 1) * r1)),
        (1, -4 * s, -2 * delta(n + 1) * r1, "j", (n - z, -2 * r1)),
        (1, 0, delta(n + 1), "j", (-2 * s, 2 * eps(n) * r1 - 2 * m + 1)),
        (1, 0, 0, "o", (-2 * s, delta(n + 1))),
        (eps(n) * r1 - m + delta(n), 0, 0, "unit", (0, 0)),
        (m - delta(n), 0, 0, "unit", (-4 * s, -2 * delta(n + 1) * r1)),
        (r1, 0, 0, "unit", (2 * n - 2 * z - 4 * s, lam)),
    )


def equation_even_even(r1: int, r2: int, s: int, z: int, m: int, n: int) -> MasterEquation:
    """Equation for classes (1,0) ↦ (r1, 2s), (0,1) ↦ (r2, 2z) (type 4):
    the operators of mu_nu_operators and the atoms of even_even_atoms.
    Cross-checked against master_forms with i = j = 0, s1 = s, s2 = z.
    """
    args = (r1, r2, s, z, m, n)
    return MasterEquation(*mu_nu_operators(*args), even_even_atoms(*args))


# ---------------------------------------------------------------------------
# the functionals used by the per-family contradictions


def xi_parity(w: int) -> Functional:
    """Z/2 functional: constant 1 when w is odd, otherwise parity of k."""
    if w % 2:
        return _tabulate((2, 1), lambda k, l: 1, 2)
    return _tabulate((2, 1), lambda k, l: k % 2, 2)


def xi_congruence(s: int, n: int, z: int) -> Functional:
    """Z/2 functional: 1 iff k ≡ 0 or k ≡ 2n-2z-1 (mod 4s); needs s ≠ 0."""
    if s == 0:
        raise ValueError("modulus 4s requires s != 0")
    mod = abs(4 * s)
    target = 2 * n - 2 * z - 1

    def on_basis(k: int, l: int) -> int:
        return 1 if (k % mod == 0 or (k - target) % mod == 0) else 0

    return _tabulate((mod, 1), on_basis, 2)


def xi_count(n: int) -> Functional:
    """Z-valued functional: δ(k+n)."""
    return _tabulate((2, 1), lambda k, l: delta(k + n), 0)


def xi_column(r1: int, r2: int, m: int, n: int) -> Functional:
    """Z/2 functional: parity of k+n+1 on the columns
    l ≡ ε(n)m - r2/2 (mod 2|r1|); needs r1 > 0 and r2 even."""
    if r1 <= 0:
        raise ValueError("modulus 2|r1| requires r1 > 0")
    if r2 % 2:
        raise ValueError("r2 must be even")
    mod = 2 * abs(r1)
    target = eps(n) * m - r2 // 2

    def on_basis(k: int, l: int) -> int:
        return (k + n + 1) % 2 if (l - target) % mod == 0 else 0

    return _tabulate((2, mod), on_basis, 2)


def xi_row(s: int, n: int) -> Functional:
    """Z/2 functional: 1 iff k ≡ n (mod 4|s|); needs s ≠ 0."""
    if s == 0:
        raise ValueError("modulus 4|s| requires s != 0")
    mod = 4 * abs(s)

    def on_basis(k: int, l: int) -> int:
        return 1 if (k - n) % mod == 0 else 0

    return _tabulate((mod, 1), on_basis, 2)


# ---------------------------------------------------------------------------
# certificate driver

# Budget of check_certificate, in pulled-back table entries.  The count is
# a bound: it takes every (m, n) point to pull back two tables of
# lcm(2, pk)·pl entries, about 2 µs an entry in rows of one entry and
# 0.1 µs in rows of 800, as it does when each point has a linear key
# (m mod Pm, n mod Pn) of its own, plus 40 entries for the constant.  The
# constant costs less, since it is evaluated by groups of atoms of equal
# periods, each once per key of its own periods.  A point whose linear
# key an earlier point of its plan had pulls back nothing.  At period
# (2, 2), mn = 40 took 0.011-0.019 s and mn = 45, the most the budget
# admits there, 0.013-0.023 s; at mn = 4, type 3 with s1 = 612 (period
# (2448, 1), just within the budget, each value of n a key of its own)
# took 0.17 s (medians of five fresh processes, two sets, Python 3.11 on
# a shared 2-CPU host).  _check_table refuses a table over half the
# budget, since a sweep pulls back at least two tables at least as large.
MAX_SWEEP_ENTRIES = 400_000


@dataclass(frozen=True, slots=True)
class CertificateReport:
    """The verdict is read off the failures: a nonzero pulled-back table
    always lists at least one entry (in the window, or else in its period
    box), and a zero constant lists its (m, n, "C", 0, 0)."""

    family: str
    windows: Tuple[int, int]  # (coordinate window, parameter window)
    witnesses_of_failure: Tuple[Tuple[int, int, str, int, int], ...]

    @property
    def linear_killed(self) -> bool:
        return all(part not in ("Ax", "Ay") for _, _, part, _, _ in self.witnesses_of_failure)

    @property
    def constant_nonzero_for_all(self) -> bool:
        return all(part != "C" for _, _, part, _, _ in self.witnesses_of_failure)

    @property
    def success(self) -> bool:
        return not self.witnesses_of_failure


# family label, functional builder and its arguments at (representative,
# m, n), keyed by decide's branch.  Each argument is reduced to what the
# functional's table reads: xi_count reads n mod 2, xi_row n mod 4|s|,
# xi_congruence n mod 2|s| (through 2n mod 4|s|), and xi_column m mod 2|r1|
# and n mod 2 (through ε(n)·m mod 2|r1| and k + n mod 2).  The branch fixes
# s1 != 0 for (c) and (d)(ii) and r1 > 0 for (d)(iii).
_FAMILIES = {
    "(a)": ("type1-even/xi-parity", xi_parity, lambda rep, m, n: (0,)),
    "(b)": ("type2/xi-parity", xi_parity, lambda rep, m, n: (1,)),
    "(c)": ("type3/xi-congruence", xi_congruence,
            lambda rep, m, n: (rep.s1, n % (2 * abs(rep.s1)), rep.s2)),
    "(d)(i)": ("type4-(i)/xi-count", xi_count, lambda rep, m, n: (n % 2,)),
    "(d)(ii)": ("type4-(ii)/xi-row", xi_row, lambda rep, m, n: (rep.s1, n % (4 * abs(rep.s1)))),
    "(d)(iii)": ("type4-(iii)/xi-column", xi_column,
                 lambda rep, m, n: (rep.r1, rep.r2, m % (2 * rep.r1), n % 2)),
}


def _family(cls: HomClass, verdict: Verdict):
    """(family label, class data, functional builder, its arguments at
    (m, n)) for a class with the Borsuk-Ulam property, given its verdict.

    All of them are read off verdict.representative, the class the verdict
    reduces to taken with i = 0.  The obstruction equation depends on s2
    only through its parity, so the central shift needs no transport.  The
    class data (r1, r2, s1, s2, i, j) are the representative's, i and j
    the parities of its images' second coordinates, and the functional is
    the one _FAMILIES keys by decide's branch for it.  An i = 1 class
    takes the representative's certificate: H carries witnesses of the one
    to witnesses of the other and back, so refuting the representative's
    equation refutes both, once check_h has confirmed H.

    _FAMILIES reduces the arguments to the residues the tables read, so
    however large mn, a sweep, which builds one functional per argument
    and parity of n, builds at most 2 xi_parity or xi_count, 4|s| xi_row,
    2|s| xi_congruence or 4|r1| xi_column functionals.  What it keeps
    stays within the sweep budget, which counts each point for twice its
    functional's table at least."""
    rep = verdict.representative
    label, build, args_at = _FAMILIES[decide(rep).branch]
    n1, n2 = (img.n for img in rep.images())
    if cls.i:
        check_h()
        label += " via H"
    return label, (rep.r1, rep.r2, rep.s1, rep.s2, n1 % 2, n2 % 2), build, partial(args_at, rep)


def check_certificate(cls: HomClass, window: int = 6, mn: int = 4) -> CertificateReport:
    """Run the bounded certificate for a class with the property.

    For every (m, n) with |m|, |n| <= mn, the family's functional must
    kill both linear operators on every basis vector e(k, l) and take a
    nonzero value on the constant part.  The equation's forms are built
    once per parity of n (master_forms).  The sweep keeps one plan per
    argument of the functional and parity of n (_plan), with the
    functional built once for it and periods read off the forms'
    coefficients, as the module docstring says.  The linear part is
    decided once per key (m mod Pm, n mod Pn) of a plan: its operators are
    evaluated, the functional pulled back through them and its failures
    listed once, then copied with each point's (m, n).  A pulled-back
    table holds f∘A on every (k, l), so the linear part is decided for all
    (k, l) from the whole table.  The coordinate window only bounds which
    failures are listed: the nonzero entries with |k|, |l| <= window, or,
    when none falls inside it, the nonzero entries of the table's period
    box.  The constant is f applied to its atoms,
    summed over the groups of _shape; each group's value is kept per its
    own reduced (m, n), so the sweep builds no vector and evaluates a
    group once per such key.  A sweep over MAX_SWEEP_ENTRIES, counted from
    mn and the functional's period, raises ValueError before any form,
    atom or pulled-back table is built.
    """
    if window < 0 or mn < 0:
        raise ValueError(f"windows must be non-negative, got window={window}, mn={mn}")
    verdict = decide(cls)
    if not verdict.bu:
        raise ValueError(
            f"{cls.describe()} fails the Borsuk-Ulam property; "
            "certificates only exist for classes that have it"
        )
    family, data, build, args_at = _family(cls, verdict)
    origin = args_at(0, 0)
    first = build(*origin)
    pk, pl = first.period
    entries = (2 * mn + 1) ** 2 * (40 + 2 * lcm(2, pk) * pl)
    if entries > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"certificate sweep of {entries} table entries (mn={mn}, period {pk}x{pl}) "
            f"exceeds the budget of {MAX_SWEEP_ENTRIES}"
        )
    i, j = data[4:]
    forms = [master_forms(*data, parity) for parity in (0, 1)]
    failures: list[Tuple[int, int, str, int, int]] = []
    coords = range(-window, window + 1)
    # the functional read off for the budget is the one of the plan at (0, 0)
    plans = {(origin, 0): _plan(first, forms[0], i, j, 0)}
    for m in range(-mn, mn + 1):
        for n in range(-mn, mn + 1):
            args, parity = args_at(m, n), n & 1
            plan = plans.get((args, parity))
            if plan is None:
                plan = plans[args, parity] = _plan(build(*args), forms[parity], i, j, parity)
            f, pm, pn, linear_by_key, atom_groups = plan
            total = 0
            for atoms, gm, gn, values in atom_groups:
                key = (m % gm if gm else m, n % gn if gn else n)
                value = values.get(key)
                if value is None:
                    value = values[key] = f.on_atoms(_atoms_at(atoms, m, n))
                total += value
            if (total % f.mod if f.mod else total) == 0:
                failures.append((m, n, "C", 0, 0))
            key = (m % pm, n % pn)
            linear = linear_by_key.get(key)
            if linear is None:
                linear = linear_by_key[key] = _linear_failures(
                    f, _operators_at(forms[parity], m, n), coords
                )
            if linear:
                failures.extend((m, n, name, k, l) for name, k, l in linear)
    return _report(family, window, mn, tuple(sorted(failures)))


# A report is frozen, so sweeps share one report per value while it is
# cached: a caller that keeps many reports keeps one of each, not a copy
# per sweep.
@lru_cache(maxsize=256)
def _report(family: str, window: int, mn: int, failures: tuple) -> CertificateReport:
    return CertificateReport(family, (window, mn), failures)


def _periods(fields: Iterable[Tuple[Form, int]]) -> Tuple[int, int]:
    """(Pm, Pn) of fields (form, M), each form read modulo M, M = 0 for a
    form read whole: what they read repeats when m moves by Pm or n by Pn.
    A form with m coefficient c repeats when m moves by M / gcd(c, M), and
    Pm is the lcm of those; it is 0, for no period, when a form read whole
    reads m.  Likewise for n."""
    pm = pn = 1
    for (_, cm, cn), modulus in fields:
        if cm:
            pm = lcm(pm, modulus // gcd(cm, modulus))
        if cn:
            pn = lcm(pn, modulus // gcd(cn, modulus))
    return pm, pn


def _term_fields(forms: MasterForms, pk: int, pl: int) -> Iterable[Tuple[Form, int]]:
    """The offsets of Ax and Ay, each with the modulus a pullback reads it at."""
    for tables in (forms.ax, forms.ay):
        for terms in tables:
            for _, _, p, _, q in terms:
                yield p, pk
                yield q, pl


def _atom_fields(
    atoms: Iterable[AtomForm], pk: int, pl: int, mod: int
) -> Iterable[Tuple[Form, int]]:
    """The fields of atoms, each with the modulus on_atoms reads it at for
    a functional of period box (pk, pl) and modulus mod."""
    for coef, p, q, family, args in atoms:
        yield coef, mod
        yield p, pk
        yield q, pl
        if family == "unit":
            yield args[0], lcm(2, pk)
            yield args[1], pl
        else:
            for arg in args:
                yield arg, 0


@lru_cache(maxsize=256)
def _shape(i: int, j: int, parity: int, pk: int, pl: int, mod: int):
    """(Pm, Pn, groups) for a functional of period box (pk, pl) and
    modulus mod: the periods of the term tables of Ax and Ay, and the
    atoms of master_forms grouped by their periods, as (indices, Gm, Gn),
    0 for a variable read whole.  The forms' coefficients cm and cn depend
    on (i, j, parity) alone, so the forms of any class data give them."""
    forms = master_forms(0, 0, 0, 0, i, j, parity)
    pm, pn = _periods(_term_fields(forms, pk, pl))
    groups: dict = {}
    for index, atom in enumerate(forms.atoms):
        groups.setdefault(_periods(_atom_fields((atom,), pk, pl, mod)), []).append(index)
    return pm, pn, tuple((tuple(indices), gm, gn) for (gm, gn), indices in groups.items())


def _plan(f: Functional, forms: MasterForms, i: int, j: int, parity: int):
    """(f, Pm, Pn, linear failures by key, [(atoms, Gm, Gn, values by
    key)]) for the points of a sweep whose functional is f and whose n has
    the given parity, both dicts empty.  A group leaves out the atoms whose
    coefficient is 0 for every (m, n), and a group of none is left out."""
    pm, pn, groups = _shape(i, j, parity, *f.period, f.mod)
    atoms = forms.atoms
    plan_groups = []
    for indices, gm, gn in groups:
        group = [atoms[index] for index in indices if atoms[index][0] != _ZERO]
        if group:
            plan_groups.append((group, gm, gn, {}))
    return f, pm, pn, {}, plan_groups


def _linear_failures(
    f: Functional, ops: Tuple[KernelOperator, KernelOperator], coords: range
) -> List[Tuple[str, int, int]]:
    """(name, k, l) for each nonzero entry of f∘Ax and f∘Ay that a report
    lists: those with k, l in coords, or, when none falls there, those of
    the pulled-back table's period box."""
    failures = []
    for name, op in zip(("Ax", "Ay"), ops):
        pulled = f.pullback(op)
        if not any(map(any, pulled.table)):
            continue
        bad = [(k, l) for k in coords for l in coords if pulled.value(k, l)]
        if not bad:
            pk, pl = pulled.period
            bad = [(k, l) for k in range(pk) for l in range(pl) if pulled.table[k][l]]
        failures.extend((name, k, l) for k, l in bad)
    return failures
