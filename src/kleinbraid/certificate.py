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

Every functional is periodic in (k, l), and each xi_* is nonzero on one
or two residue classes, so a Functional is its period box, its modulus
and its support {(a, b): weight}.  Pulling it back through a term table
gives f∘A as another periodic support, since the ±1 slopes of A keep the
parity of k and move k and l by whole periods: each support entry goes
through each term to at most one point of the box (lcm(2, pk), pl).  The
certificate sweep reads the linear part off the whole pulled-back
supports of Ax and Ay, so it covers every (k, l).

A MasterEquation holds its constant as data: a tuple of atoms (coef, p,
q, family, args), each standing for coef·c(p, q)(tilde_family(args)).
MasterEquation.constant, the one place the constant becomes a vector,
materialises them for the cross-checks, and the sweep applies the
functional to the atoms themselves (Functional.on_atoms): each family's
support is a few arithmetic-progression boxes, and a box's value is,
over the functional's support entries, the number of points of its two
progressions in each entry's residue class, found with one modular
inverse per box, so f(C(m, n)) costs the same however large the family
arguments are.

The sweep builds the forms of both parities once, and evaluates only
what changes from point to point.  With the parity fixed, every integer
the evaluation reads is an affine form, and the evaluation reads most of
them modulo something: an offset p modulo pk and an offset q modulo pl
(in the term tables of Ax and Ay and in the atoms), an atom coefficient
modulo f.mod when mod > 0, and the two arguments of a "unit" atom modulo
lcm(2, pk) and pl.  A form whose m coefficient is c, read modulo M,
repeats when m moves by M / gcd(c, M), so a piece of the equation
repeats in m with the lcm of that over the fields that read m, and
likewise in n: its periods are read off the coefficients, not found by
probing.  The other box arguments set counts and signs and are read
whole, so a variable read there is keyed by its full value.

The sweep takes its points cell by cell: a cell is a residue class of
(m, n) that fixes the functional's arguments and the parity of n, whose
periods _FAMILIES states, and its points are a grid of rows m and
columns n.  The linear failures are decided once per (m mod Pm, n mod
Pn), the periods of the term tables: each offset reduced modulo the
functional's period box is all that a pullback reads, so the points of
one key share their pulled-back supports.  The constant is evaluated in
groups of atoms, one per pair (Gm, Gn) of an atom's own periods, 1 for a
variable it does not read and 0 for one it reads whole.  The
coefficients cm and cn depend on (i, j, parity) alone, so the groups and
every period are worked out once per (i, j, parity) and functional shape
(pk, pl, mod), not once per sweep.  Each group is evaluated once per key
(m mod Gm, n mod Gn) in a cell, which makes most groups a scalar, a row
R[m] or a column C[n] there, and f(C(m, n)) = R[m] + C[n] is zero where
C[n] is -R[m]: the zeros are looked up by value, so the sweep's cost
grows with the side of the window, not with its area, unless a group
reads both m and n across a cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import cycle
from math import gcd, lcm
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Tuple

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
    """Linear functional on kernel vectors, periodic in (k, l) with period
    box period = (pk, pl), held as its support: its value on e(k, l) is
    support[(k % pk, l % pl)], and 0 off the support.  Every weight is
    nonzero, and reduced when mod > 0.  mod == 0 means Z-valued, mod == 2
    means Z/2-valued."""

    period: Tuple[int, int]
    mod: int
    support: Dict[Tuple[int, int], int]

    def value(self, k: int, l: int) -> int:
        pk, pl = self.period
        return self.support.get((k % pk, l % pl), 0)

    def __call__(self, vec: KernelVector) -> int:
        (pk, pl), get = self.period, self.support.get
        total = sum(c * get((k % pk, l % pl), 0) for (k, l), c in vec.items())
        return total % self.mod if self.mod else total

    def on_atoms(self, atoms: Iterable[Atom]) -> int:
        """f(Σ coef·c(p, q)(tilde_family(args))) over the atoms, read off
        the families' progression boxes without building a vector.

        c(p, q) moves a box to the box at (k0 + p, l0 + ε(k0)·q), and the
        value of f on a box is Σ w·count_k(a)·count_l(b) over the support
        entries (a, b): w, where count_k(a) counts the points k0 + dk·i,
        i < nk, that are a mod pk, and likewise in l.  With g = gcd(dk, pk)
        there are none unless g divides a - k0, and then they are the i of
        one class i0 modulo pk / g, found with one modular inverse of
        dk / g per box.  Most boxes stay in one residue class in both
        directions (one row or column, or a step that is a whole number of
        periods, as dk = 2 is for pk = 2), and such a box is nk·nl times
        one value."""
        (pk, pl), mod, support = self.period, self.mod, self.support
        total = 0
        for coef, p, q, family, args in atoms:
            for c, k0, dk, l0, dl, nk, nl in BOXES[family](*args):
                k = k0 + p
                l = l0 - q if k0 & 1 else l0 + q
                if (nk == 1 or dk % pk == 0) and (nl == 1 or dl % pl == 0):
                    total += coef * c * nk * nl * support.get((k % pk, l % pl), 0)
                    continue
                gk, gl = gcd(dk, pk), gcd(dl, pl)
                ck, cl = pk // gk, pl // gl
                ik, il = pow(dk // gk, -1, ck), pow(dl // gl, -1, cl)
                box = 0
                for (a, b), w in support.items():
                    a, b = a - k, b - l
                    if a % gk == 0 and b % gl == 0:
                        i, j = a // gk * ik % ck, b // gl * il % cl
                        box += w * ((nk - i + ck - 1) // ck) * ((nl - j + cl - 1) // cl)
                total += coef * c * box
        return total % mod if mod else total

    def pullback(self, op: KernelOperator) -> "Functional":
        """f∘op over the period box (lcm(2, pk), pl), entry by entry.

        A term (a, p, b, q): c at the parity π of k sends e(k, l) to
        c·e(a·k + p, b·l + q), so it carries a support entry (s, t): w to
        c·w at the (k, l) with k ≡ π (mod 2), k ≡ a·(s - p) (mod pk) and
        l ≡ b·(t - q) (mod pl), a and b = ±1 being their own inverses.  The
        box holds one such k when pk is odd, and one or none when pk is
        even.  f∘op is zero exactly when the sums leave no support."""
        (pk, pl), mod = self.period, self.mod
        pulled: dict = {}
        for parity, terms in enumerate(op.terms):
            for (a, p, b, q), c in terms.items():
                for (s, t), w in self.support.items():
                    k = a * (s - p) % pk
                    if (k ^ parity) & 1:
                        if not pk & 1:
                            continue
                        k += pk
                    key = (k, b * (t - q) % pl)
                    pulled[key] = pulled.get(key, 0) + c * w
        if mod:
            pulled = {key: w % mod for key, w in pulled.items()}
        return Functional((lcm(2, pk), pl), mod, {key: w for key, w in pulled.items() if w})


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
    return Functional((2, 1), 2, {(0, 0): 1, (1, 0): 1} if w % 2 else {(1, 0): 1})


def xi_congruence(s: int, n: int, z: int) -> Functional:
    """Z/2 functional: 1 iff k ≡ 0 or k ≡ 2n-2z-1 (mod 4s); needs s ≠ 0.
    The second residue is odd, so the two are distinct."""
    if s == 0:
        raise ValueError("modulus 4s requires s != 0")
    mod = abs(4 * s)
    return Functional((mod, 1), 2, {(0, 0): 1, ((2 * n - 2 * z - 1) % mod, 0): 1})


def xi_count(n: int) -> Functional:
    """Z-valued functional: δ(k+n), 1 iff k ≡ n + 1 (mod 2)."""
    return Functional((2, 1), 0, {((n + 1) % 2, 0): 1})


def xi_column(r1: int, r2: int, m: int, n: int) -> Functional:
    """Z/2 functional: parity of k+n+1, 1 iff k ≡ n (mod 2), on the columns
    l ≡ ε(n)m - r2/2 (mod 2|r1|); needs r1 > 0 and r2 even."""
    if r1 <= 0:
        raise ValueError("modulus 2|r1| requires r1 > 0")
    if r2 % 2:
        raise ValueError("r2 must be even")
    mod = 2 * abs(r1)
    return Functional((2, mod), 2, {(n % 2, (eps(n) * m - r2 // 2) % mod): 1})


def xi_row(s: int, n: int) -> Functional:
    """Z/2 functional: 1 iff k ≡ n (mod 4|s|); needs s ≠ 0."""
    if s == 0:
        raise ValueError("modulus 4|s| requires s != 0")
    mod = 4 * abs(s)
    return Functional((mod, 1), 2, {(n % mod, 0): 1})


# ---------------------------------------------------------------------------
# certificate driver

# Budget of check_certificate, counted as it was for dense tables: every
# (m, n) point pulling back two tables of lcm(2, pk)·pl entries, plus 40
# entries for the constant.  With functionals held as their supports
# nothing of that size is built, so the count is a bound far above the
# work; it keeps the sweeps the budget admits, and refuses the others
# before any support, form or pullback is built.  At period (2, 2), mn =
# 45, the most the budget admits there, took 2.4-4.1 ms, and type 3 with
# s1 = 612 at mn = 4 (period (2448, 1), just within the budget) 1.4-1.8
# ms, against 14-15 ms and 169-296 ms with dense tables (medians of five
# fresh processes, two sets, Python 3.11 on a shared 2-CPU host).
MAX_SWEEP_ENTRIES = 400_000


@dataclass(frozen=True, slots=True)
class CertificateReport:
    """The verdict is read off the failures: a nonzero pulled-back support
    always lists at least one point (in the window, or else of the support
    itself), and a zero constant lists its (m, n, "C", 0, 0)."""

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


# family label, functional builder, its layout and its arguments at
# (representative, m, n), keyed by decide's branch.  The layout is the
# functional's period box and the periods (Cm, Cn) of the sweep's cells,
# the residue classes of (m, n) that fix its arguments.  Each argument is
# reduced to what the support reads: xi_count reads n mod 2, xi_row n mod
# 4|s|, xi_congruence n mod 2|s| (through 2n mod 4|s|), and xi_column
# m mod 2|r1| and n mod 2 (through ε(n)·m mod 2|r1| and k + n mod 2).  The
# branch fixes s1 != 0 for (c) and (d)(ii) and r1 > 0 for (d)(iii).
_FAMILIES = {
    "(a)": ("type1-even/xi-parity", xi_parity,
            lambda rep: ((2, 1), (1, 1)), lambda rep, m, n: (0,)),
    "(b)": ("type2/xi-parity", xi_parity,
            lambda rep: ((2, 1), (1, 1)), lambda rep, m, n: (1,)),
    "(c)": ("type3/xi-congruence", xi_congruence,
            lambda rep: ((4 * abs(rep.s1), 1), (1, 2 * abs(rep.s1))),
            lambda rep, m, n: (rep.s1, n % (2 * abs(rep.s1)), rep.s2)),
    "(d)(i)": ("type4-(i)/xi-count", xi_count,
               lambda rep: ((2, 1), (1, 2)), lambda rep, m, n: (n % 2,)),
    "(d)(ii)": ("type4-(ii)/xi-row", xi_row,
                lambda rep: ((4 * abs(rep.s1), 1), (1, 4 * abs(rep.s1))),
                lambda rep, m, n: (rep.s1, n % (4 * abs(rep.s1)))),
    "(d)(iii)": ("type4-(iii)/xi-column", xi_column,
                 lambda rep: ((2, 2 * rep.r1), (2 * rep.r1, 2)),
                 lambda rep, m, n: (rep.r1, rep.r2, m % (2 * rep.r1), n % 2)),
}


def _family(cls: HomClass, verdict: Verdict):
    """(family label, class data, functional builder, its layout, its
    arguments at (m, n)) for a class with the Borsuk-Ulam property, given
    its verdict.

    All of them are read off verdict.representative, the class the verdict
    reduces to taken with i = 0.  The obstruction equation depends on s2
    only through its parity, so the central shift needs no transport.  The
    class data (r1, r2, s1, s2, i, j) are the representative's, i and j
    the parities of its images' second coordinates, and the functional is
    the one _FAMILIES keys by decide's branch for it.  An i = 1 class
    takes the representative's certificate: H carries witnesses of the one
    to witnesses of the other and back, so refuting the representative's
    equation refutes both, once check_h has confirmed H."""
    rep = verdict.representative
    label, build, layout, args_at = _FAMILIES[decide(rep).branch]
    n1, n2 = (img.n for img in rep.images())
    if cls.i:
        check_h()
        label += " via H"
    data = (rep.r1, rep.r2, rep.s1, rep.s2, n1 % 2, n2 % 2)
    return label, data, build, layout(rep), partial(args_at, rep)


def check_certificate(cls: HomClass, window: int = 6, mn: int = 4) -> CertificateReport:
    """Run the bounded certificate for a class with the property.

    For every (m, n) with |m|, |n| <= mn, the family's functional must
    kill both linear operators on every basis vector e(k, l) and take a
    nonzero value on the constant part.  The equation's forms are built
    once per parity of n (master_forms).  The sweep takes the points cell
    by cell: a cell is a residue class of (m, n) modulo the family's cell
    periods (Cm, lcm(2, Cn)), so it fixes the functional's arguments and
    the parity of n, and its points are a grid ms × ns.  The functional is
    built once per cell, and _cell_failures lists the cell's failures.  A
    pulled-back support holds f∘A on every (k, l), so the linear part is
    decided for all (k, l).  The coordinate window only bounds which
    failures are listed: the points of the support with |k|, |l| <=
    window, or, when none falls inside it, the support itself.  A sweep
    over MAX_SWEEP_ENTRIES, counted from mn and the functional's period,
    raises ValueError before any support, form or pullback is built.
    """
    if window < 0 or mn < 0:
        raise ValueError(f"windows must be non-negative, got window={window}, mn={mn}")
    verdict = decide(cls)
    if not verdict.bu:
        raise ValueError(
            f"{cls.describe()} fails the Borsuk-Ulam property; "
            "certificates only exist for classes that have it"
        )
    family, data, build, ((pk, pl), (cm, cn)), args_at = _family(cls, verdict)
    entries = (2 * mn + 1) ** 2 * (40 + 2 * lcm(2, pk) * pl)
    if entries > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"certificate sweep of {entries} table entries (mn={mn}, period {pk}x{pl}) "
            f"exceeds the budget of {MAX_SWEEP_ENTRIES}"
        )
    i, j = data[4:]
    forms = [master_forms(*data, parity) for parity in (0, 1)]
    coords = range(-window, window + 1)
    span = range(-mn, mn + 1)
    cn = lcm(2, cn)
    failures: list[Tuple[int, int, str, int, int]] = []
    for rm in range(min(cm, len(span))):
        ms = span[rm::cm]
        for rn in range(min(cn, len(span))):
            ns = span[rn::cn]
            f = build(*args_at(ms[0], ns[0]))
            failures += _cell_failures(f, forms[ns[0] & 1], i, j, ms, ns, coords)
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


def _cell_failures(
    f: Functional, forms: MasterForms, i: int, j: int, ms: range, ns: range, coords: range
) -> List[Tuple[int, int, str, int, int]]:
    """The failures at the points ms × ns of a cell, whose functional is f
    and whose n are of the forms' parity.

    A key x mod P (x whole for P = 0) repeats along ms or ns with the
    cycle of _cycle, so each group of _shape, and the term tables, are
    evaluated once per point of their cycles, each such point the first
    of its key; the atoms of coefficient 0 for every (m, n) are left out.
    A group of cycle 1 in both is a scalar, one of cycle 1 in n a row
    R[m], and one of cycle 1 in m a column C[n]; the scalars are added to
    the rows.  Without groups that read both, f(C(m, n)) = R[m] + C[n], so
    its zeros are the n whose C[n] is -R[m] (mod f.mod), looked up in an
    index of C by value, one lookup per m.  Only the groups that read both
    are summed per point.  The linear part is decided once per key (m mod
    Pm, n mod Pn) of the term tables' periods, and its failures are copied
    to the key's points when it has some."""
    pm, pn, groups = _shape(i, j, forms.parity, *f.period, f.mod)
    mod = f.mod
    rows, cols, both = [0] * len(ms), [0] * len(ns), []
    for indices, gm, gn in groups:
        atoms = [forms.atoms[x] for x in indices if forms.atoms[x][0] != _ZERO]
        if not atoms:
            continue
        cm, cn = _cycle(gm, ms), _cycle(gn, ns)
        values = [f.on_atoms(_atoms_at(atoms, m, n)) for m in ms[:cm] for n in ns[:cn]]
        if cm > 1 and cn > 1:
            both.append((values, cm, cn))
        elif cn > 1:
            cols = list(map(add, cols, cycle(values)))
        else:
            rows = list(map(add, rows, cycle(values)))
    failures = []
    if both:
        for x, (m, row) in enumerate(zip(ms, rows)):
            for y, (n, col) in enumerate(zip(ns, cols)):
                total = row + col + sum(values[x % a * b + y % b] for values, a, b in both)
                if (total % mod if mod else total) == 0:
                    failures.append((m, n, "C", 0, 0))
    else:
        index: dict = {}
        for n, col in zip(ns, cols):
            index.setdefault(col % mod if mod else col, []).append(n)
        for m, row in zip(ms, rows):
            failures += [(m, n, "C", 0, 0) for n in index.get(-row % mod if mod else -row, ())]
    lm, ln = _cycle(pm, ms), _cycle(pn, ns)
    for x in range(lm):
        for y in range(ln):
            linear = _linear_failures(f, _operators_at(forms, ms[x], ns[y]), coords)
            if linear:
                failures += [(m, n, *bad) for m in ms[x::lm] for n in ns[y::ln] for bad in linear]
    return failures


def _cycle(period: int, line: range) -> int:
    """After how many points of line a key x mod period (x whole for
    period 0) repeats: x moves by line.step from point to point, so
    period / gcd(step, period), or the whole line when that is longer.
    Within one cycle the keys are distinct."""
    return len(line) if period == 0 else min(len(line), period // gcd(line.step, period))


def _linear_failures(
    f: Functional, ops: Tuple[KernelOperator, KernelOperator], coords: range
) -> List[Tuple[str, int, int]]:
    """(name, k, l) for each point of the support of f∘Ax and f∘Ay that a
    report lists: those with k, l in coords, or, when none falls there, the
    support's own points."""
    failures = []
    for name, op in zip(("Ax", "Ay"), ops):
        pulled = f.pullback(op)
        if pulled.support:
            bad = [(k, l) for k in coords for l in coords if pulled.value(k, l)]
            failures.extend((name, k, l) for k, l in bad or sorted(pulled.support))
    return failures
