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

build_master assembles the general equation from the class parameters
(r1, r2, s1, s2, i, j) and the quantified pair (m, n), as the operators
of master_operators and the atoms of master_atoms.  master_operators
writes the term tables of Ax and Ay directly from the derived exponents,
two terms per parity, with no operator algebra; the compositions of c,
theta, rho and id that define them are the tests' reference.  The three
per-family transcriptions below return the specialised equations as
MasterEquation too, written independently: their operators composed from
the induced operators or, for mu/nu, displayed, and their constants as
atoms transcribed term for term from the specialised constants
(even_even_atoms for the type-4 one, which the xi-count check reads
alone).  Their exact equality with build_master is part of the test
surface.

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

The sweep decides the linear part once per residue class of (m, n) and
evaluates only the constant at each point.  Once the parity of n is fixed,
every offset of Ax and Ay is affine in (m, n) with integer coefficients
and every sign slot is fixed, so for a functional of period (pk, pl) the
pulled-back tables at (m, n), (m + L, n) and (m, n + L) are equal, with
L = lcm(2, pk, pl); each family's functional argument is reduced modulo a
divisor of L, so the points of one class also share their functional.
The linear failures are kept per (functional, m mod L, n mod L), and a
point whose class is already kept builds only the atoms and applies the
functional to them, where most boxes stay in one residue class in both
directions and read one table entry.  A functional is built once per
distinct argument of a sweep, and a pulled-back table once per residue
key, shared by the classes that have that key: the key is the functional
and the operator's term tables with their offsets reduced mod the
period, which is all a pullback reads of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Callable, Iterable, List, Tuple

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
    Z/2-valued.  Its hash is taken once, when it is built, since the
    sweep keys its caches on it at every (m, n) point."""

    table: Tuple[Tuple[int, ...], ...]
    mod: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.table, self.mod)))

    def __hash__(self) -> int:
        return self._hash

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
        """f∘op, tabulated over the period box (lcm(2, pk), pl).

        An entry (a, p, b, q): c at the parity of k sends e(k, l) to
        c·e(a·k + p, b·l + q); with a, b = ±1, moving k by a multiple of
        lcm(2, pk) keeps its parity and moves a·k + p by a multiple of pk,
        and moving l by pl moves b·l + q by pl, so one box holds every
        value of f∘op."""
        table, mod = self.table, self.mod
        pk, pl = self.period

        def on_basis(k: int, l: int) -> int:
            total = sum(
                c * table[(a * k + p) % pk][(b * l + q) % pl]
                for (a, p, b, q), c in op.terms[k % 2].items()
            )
            return total % mod if mod else total

        return _tabulate((lcm(2, pk), pl), on_basis, mod)


def _residue_counts(start: int, step: int, count: int, period: int) -> List[Tuple[int, int]]:
    """(residue, multiplicity) of start + step·i mod period over i < count.
    The residues repeat with cycle period / gcd(step, period) and are
    distinct within one cycle, so one cycle gives all of them."""
    cycle = period // gcd(step, period)
    full, rest = divmod(count, cycle)
    return [((start + step * i) % period, full + (i < rest)) for i in range(min(count, cycle))]


def _pullback_once(cache: dict, f: Functional, op: KernelOperator) -> Functional:
    """f.pullback(op), computed once per residue key and kept in cache.

    The pullback reads an entry (a, p, b, q): c of op only through
    p mod pk and q mod pl, so the key is f and op's tables as entries
    (a, p mod pk, b, q mod pl, c).  A key is order-sensitive,
    so two orders of one table only cost a second pullback."""
    pk, pl = f.period
    key = (f,) + tuple(
        tuple((a, p % pk, b, q % pl, c) for (a, p, b, q), c in terms.items())
        for terms in op.terms
    )
    pulled = cache.get(key)
    if pulled is None:
        pulled = cache[key] = f.pullback(op)
    return pulled


def _tabulate(
    period: Tuple[int, int], on_basis: Callable[[int, int], int], mod: int
) -> Functional:
    pk, pl = period
    if 2 * pk * pl > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"a table of {pk * pl} entries exceeds half the budget of {MAX_SWEEP_ENTRIES} "
            "table entries of a certificate sweep"
        )
    table = tuple(tuple(on_basis(k, l) for l in range(pl)) for k in range(pk))
    return Functional(table, mod)


@dataclass(frozen=True)
class MasterParams:
    r1: int
    r2: int
    s1: int
    s2: int
    i: int
    j: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError("i and j must be 0 or 1")


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


def derived_exponents(p: MasterParams) -> Tuple[int, int, int, int, int]:
    """(a1, a2, b1, b2, g) as functions of the class data and (m, n)."""
    r1, r2, s1, s2, i, j, m, n = (
        p.r1, p.r2, p.s1, p.s2, p.i, p.j, p.m, p.n,
    )
    a1 = -2 * (delta(i + 1) * delta(j + 1) * delta(n + 1) * r1 + delta(i) * eps(n) * m)
    a2 = -4 * s1 - 2 * i
    b1 = delta(i + 1) * delta(j + 1) * eps(n) * r2 + 2 * delta(j + n + 1) * eps(j + 1) * m
    b2 = 2 * s2 - 2 * n + j
    g = delta(i + 1) * delta(j + 1) * r1 + eps(i) * m + eps(n + i) * a1
    return a1, a2, b1, b2, g


_IDENTITY = (1, 0, 1, 0)  # the key of ID's one term at each parity


def master_operators(p: MasterParams) -> Tuple[KernelOperator, KernelOperator]:
    """The linear operators (Ax, Ay) of the obstruction equation at (m, n).

    With e = ε(n+i), t = εi and r = δ(i+1)δ(j+1)r1, they are

        Ax = c(a2 - b2, a1 - b1) + theta(g, δ(n+i))∘rho
        Ay = c(a2, a1·e)∘theta(r, δi) - id

    and their term tables are written directly: Ax has one c-term and one
    theta∘rho-term per parity, which never share a key, and Ay one
    c∘theta-term per parity less the identity.  Once the parity of n is
    fixed, every offset is affine in (m, n) with integer coefficients and
    every sign slot is fixed, which is what the certificate sweep's cache
    rests on."""
    r1, i, j, n = p.r1, p.i, p.j, p.n
    a1, a2, b1, b2, g = derived_exponents(p)
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


def master_atoms(p: MasterParams) -> Tuple[Atom, ...]:
    """The constant C(m, n) of the obstruction equation, as its nonzero
    atoms (coef, p, q, family, args)."""
    r1, s1, s2, i, j, m, n = p.r1, p.s1, p.s2, p.i, p.j, p.m, p.n
    a1, a2, b1, b2, g = derived_exponents(p)
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


def build_master(p: MasterParams) -> MasterEquation:
    """The general two-unknown obstruction equation at (m, n): the
    operators of master_operators and the atoms of master_atoms."""
    return MasterEquation(*master_operators(p), master_atoms(p))


# ---------------------------------------------------------------------------
# per-family equations, transcribed independently of build_master


def equation_first_odd(s: int, z: int, w: int, m: int, n: int) -> MasterEquation:
    """Equation for classes (1,0) ↦ (0, 2s+1), (0,1) ↦ (0, (2z+1)w).

    Covers type 1 at the even representative (w = 0) and type 2 (w = 1).
    The constant is transcribed as atoms; cross-checked against
    build_master with i = 1, j = w, s1 = s, s2 = z·w.
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
    build_master with i = 0, j = 1, s1 = s, s2 = z.
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
    compositional definitions, whose tables build_master writes directly:

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
    Cross-checked against build_master with i = j = 0, s1 = s, s2 = z.
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
# lcm(2, pk)·pl entries, 1 to 1.5 µs an entry, as it does when each point
# is a residue class of its own (L = lcm(2, pk, pl) > 2·mn), plus about
# 0.03 ms for the constant, counted as 40 entries.  A point whose residue
# class of (m, n) mod L an earlier point had pulls back nothing, and a
# class whose residue key of the term tables an earlier class had reuses
# its tables.  At period (2, 2), mn = 40 took 0.20 s and mn = 45, the most
# the budget admits there, 0.24 s; at mn = 4, type 3 with s1 = 612 (period
# (2448, 1), just within the budget, no class holding two points) took
# 0.21 s (medians of five, Python 3.11 on a shared 2-CPU host).  _tabulate
# refuses a table over half the budget, since a sweep pulls back at least
# two tables at least as large.
MAX_SWEEP_ENTRIES = 400_000


@dataclass(frozen=True)
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
    """(family label, params builder, functional builder) for a class
    with the Borsuk-Ulam property, given its verdict.

    Both builders work on verdict.representative, the class the verdict
    reduces to taken with i = 0.  The obstruction equation depends on s2
    only through its parity, so the central shift needs no transport.  The
    master parameters are read off the representative's images, and the
    functional is the one _FAMILIES keys by decide's branch for it.  An
    i = 1 class takes the representative's certificate: H carries
    witnesses of the one to witnesses of the other and back, so refuting
    the representative's equation refutes both, once check_h has confirmed
    H.

    The functional builder builds each functional once per distinct
    argument and keeps it for the life of the builder, which is one
    sweep.  _FAMILIES reduces the arguments to the residues the tables
    read, so however large mn, a sweep builds at most 2 xi_count, 4|s|
    xi_row, 2|s| xi_congruence or 4|r1| xi_column functionals.  What it
    keeps stays within the sweep budget, which counts each point for
    twice its functional's table at least."""
    rep = verdict.representative
    label, build, args_at = _FAMILIES[decide(rep).branch]
    n1, n2 = (img.n for img in rep.images())
    if cls.i:
        check_h()
        label += " via H"
    built: dict = {}

    def functional_at(m: int, n: int) -> Functional:
        args = args_at(rep, m, n)
        f = built.get(args)
        if f is None:
            f = built[args] = build(*args)
        return f

    return (
        label,
        lambda m, n: MasterParams(rep.r1, rep.r2, rep.s1, rep.s2, n1 % 2, n2 % 2, m, n),
        functional_at,
    )


def check_certificate(cls: HomClass, window: int = 6, mn: int = 4) -> CertificateReport:
    """Run the bounded certificate for a class with the property.

    For every (m, n) with |m|, |n| <= mn, the family's functional must
    kill both linear operators on every basis vector e(k, l) and take a
    nonzero value on the constant part.  Each (m, n) builds the atoms of
    its constant and evaluates them.  The linear part is decided once per
    functional and residue class of (m, n) mod L = lcm(2, pk, pl): its
    failures are listed once and copied with each point's (m, n); the
    module docstring says why a class decides it for all its points.  The
    functional is built once per distinct argument (_family), and its
    pullbacks through Ax and Ay once per residue key (_pullback_once).  A
    pulled-back table holds f∘A on every (k, l), so the linear part is
    decided for all (k, l) from the whole table.  The
    coordinate window only bounds which failures are listed: the nonzero
    entries with |k|, |l| <= window, or, when none falls inside it, the
    nonzero entries of the table's period box.  The constant is evaluated
    from its atoms, so the sweep builds no vector.  A sweep over
    MAX_SWEEP_ENTRIES, counted from mn and the functional's period, raises
    ValueError before it starts.
    """
    if window < 0 or mn < 0:
        raise ValueError(f"windows must be non-negative, got window={window}, mn={mn}")
    verdict = decide(cls)
    if not verdict.bu:
        raise ValueError(
            f"{cls.describe()} fails the Borsuk-Ulam property; "
            "certificates only exist for classes that have it"
        )
    family, params_at, functional_at = _family(cls, verdict)
    pk, pl = functional_at(0, 0).period
    entries = (2 * mn + 1) ** 2 * (40 + 2 * lcm(2, pk) * pl)
    if entries > MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"certificate sweep of {entries} table entries (mn={mn}, period {pk}x{pl}) "
            f"exceeds the budget of {MAX_SWEEP_ENTRIES}"
        )
    failures: list[Tuple[int, int, str, int, int]] = []
    coords = range(-window, window + 1)
    pulled_by_key: dict = {}
    linear_by_class: dict = {}
    for m in range(-mn, mn + 1):
        for n in range(-mn, mn + 1):
            params = params_at(m, n)
            f = functional_at(m, n)
            if f.on_atoms(master_atoms(params)) == 0:
                failures.append((m, n, "C", 0, 0))
            period = lcm(2, *f.period)
            key = (f, m % period, n % period)
            linear = linear_by_class.get(key)
            if linear is None:
                linear = linear_by_class[key] = _linear_failures(
                    pulled_by_key, f, master_operators(params), coords
                )
            failures.extend((m, n, name, k, l) for name, k, l in linear)
    return CertificateReport(family, (window, mn), tuple(sorted(failures)))


def _linear_failures(
    cache: dict, f: Functional, ops: Tuple[KernelOperator, KernelOperator], coords: range
) -> List[Tuple[str, int, int]]:
    """(name, k, l) for each nonzero entry of f∘Ax and f∘Ay that a report
    lists: those with k, l in coords, or, when none falls there, those of
    the pulled-back table's period box."""
    failures = []
    for name, op in zip(("Ax", "Ay"), ops):
        pulled = _pullback_once(cache, f, op)
        if not any(map(any, pulled.table)):
            continue
        bad = [(k, l) for k in coords for l in coords if pulled.value(k, l)]
        if not bad:
            pk, pl = pulled.period
            bad = [(k, l) for k in range(pk) for l in range(pl) if pulled.table[k][l]]
        failures.extend((name, k, l) for k, l in bad)
    return failures
