"""The abelianised kernel of gmap as a sparse integer module.

ker(gmap) is free on the conjugates  basis(k, l) = v^k u^l B u^-l v^-k,
and its abelianisation is the direct sum ⊕ Z·e(k,l).  project() rewrites a
kernel word into those coordinates by an abelianised coset scan over the
transversal {v^n u^(εn·m)}: u-letters only move between cosets, while each
v-letter crossing coset (m, n) deposits the row

    σk · Σ_{i=1..|k|} e(n, σk·i - (1+σk)/2),        k = εn·m

(a v^-1 letter first steps back to (m, n-1) and deposits the negated row
evaluated there).  That row is one interval of l, [0, k) or [k, 0), of
constant value, so the scan records it as the interval (_deposit), at a
cost independent of |k|, and writes every row once at the end
(_materialise): a row of one interval is its one segment, and a row of
several is merged through its difference map, each constant segment
written by one C-level dict.update.  A one-entry interval is deposited as
its coefficient, with no row machinery.  The roundtrip
project(expand(k, l)) == e(k, l) pins the scan's correctness, and the
scan is in turn the reference for the T/I/O/J/Q families below, whose
boxes _from_boxes writes through the same two functions.

A KernelVector stores only nonzero coefficients.  _accumulate is the one
merge that keeps that form (KernelVector(...), + and - run it, and so do
the term tables of KernelOperator and _materialise; _deposit adds a
one-entry deposit by the same rule inline), and the private _vector wraps
dicts that are zero-free by construction (negation, scalar multiples,
_materialise's result).  str prints each constant run of consecutive l in
a row by one join.

theta_ab / rho_ab / c_ab apply the operators induced on the abelianisation:

    theta_operator(m, n): e(k, l) ↦ εn · e(k, εn·l - 2·δk·m)
    RHO:                  e(k, l) ↦ εk · e(-k, ε(k+1)·l)
    c_operator(p, q):     e(k, l) ↦ e(k+p, l + εk·q)

Every induced operator, and every sum and composition of them, is a sum of
terms e(k, l) ↦ ±e(±k + p, ±l + q) whose signs and offsets depend only on
the parity of k.  KernelOperator holds one as a merged, zero-free table
of such terms per parity; distinct affine maps with ±1 slopes agree on at
most a line, so equality of the tables is operator equality for all (k, l).

The projections of the T/I/O/J/Q families are written once, as
progression boxes: boxes_* lists each support as boxes
(coef, k0, dk, l0, dl, I, J), each meaning

    Σ_{i<I, j<J} coef · e(k0 + dk·i, l0 + dl·j),       dk even,

and tilde_* materialises those boxes as a vector.  Their reference is the
coset scan of the words themselves, project(word_*).

An atom (coef, p, q, family, args) stands for coef·c(p, q)(tilde_family(args)),
with the family "unit" for a single basis vector e(args).  Since dk is even,
εk is ε(k0) on the whole box, so c(p, q) moves a box to the box at
(k0 + p, l0 + ε(k0)·q) with the same steps and sizes.
"""

from __future__ import annotations

from collections.abc import Mapping
from bisect import bisect_left
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Tuple, TypeVar, Union

from .kleinpi import KleinElt, eps, sign_of
from .words import BIG_B, ONE, U, V, Word, comm

Basis = Tuple[int, int]
_Items = Union[Mapping[Basis, int], Iterable[Tuple[Basis, int]], None]
_Key = TypeVar("_Key")


def _accumulate(acc: Dict[_Key, int], items: Iterable[Tuple[_Key, int]]) -> Dict[_Key, int]:
    """Add the (key, coefficient) items into acc, keeping it free of zeros."""
    for key, val in items:
        new = acc.get(key, 0) + val
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)
    return acc


class KernelVector:
    """Finitely supported integer vector over the basis pairs (k, l).

    Zero coefficients are never stored, so equality of vectors is equality
    of the underlying dicts.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: _Items = None) -> None:
        items = coeffs.items() if type(coeffs) is dict or isinstance(coeffs, Mapping) else coeffs
        self._c = _accumulate({}, items) if coeffs else {}

    @staticmethod
    def unit(k: int, l: int) -> "KernelVector":
        return KernelVector({(k, l): 1})

    def __getitem__(self, key: Basis) -> int:
        return self._c.get(key, 0)

    def items(self) -> Iterator[Tuple[Basis, int]]:
        return iter(self._c.items())

    def __add__(self, other: "KernelVector") -> "KernelVector":
        return _vector(_accumulate(dict(self._c), other._c.items()))

    def __sub__(self, other: "KernelVector") -> "KernelVector":
        return self + (-other)

    def __neg__(self) -> "KernelVector":
        return _vector({k: -v for k, v in self._c.items()})

    def __rmul__(self, scalar: int) -> "KernelVector":
        if not scalar:
            return _vector({})
        return _vector({k: scalar * v for k, v in self._c.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelVector) and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        # "(k,l):c" per entry in sorted order; a one-entry row is written as
        # that, and each contiguous constant segment of a longer row by one
        # join over the numerals of its l
        c = self._c
        if not c:
            return "0"
        keys = sorted(c)
        n = len(keys)
        numerals: Dict[Tuple[int, int], List[str]] = {}
        out = []
        start = 0
        while start < n:
            key = keys[start]
            k = key[0]
            end = start + 1
            if end == n or keys[end][0] != k:
                out.append(f"({k},{key[1]}):{c[key]}")
                start = end
                continue
            end = bisect_left(keys, (k + 1,), end)
            coefs = list(map(c.__getitem__, keys[start:end]))
            size, lo, x = end - start, key[1], coefs[0]
            if keys[end - 1][1] - lo == size - 1 and coefs.count(x) == size:
                out.append(_segment(numerals, k, lo, size, x))
            else:
                # a row with gaps or mixed coefficients: split it at each
                i = 0
                while i < size:
                    j, lo, x = i + 1, keys[start + i][1], coefs[i]
                    while j < size and coefs[j] == x and keys[start + j][1] == lo + j - i:
                        j += 1
                    out.append(f"({k},{lo}):{x}" if j - i == 1 else _segment(numerals, k, lo, j - i, x))
                    i = j
            start = end
        return " ".join(out)

    def __repr__(self) -> str:
        return f"KernelVector({self._c!r})"


def _segment(numerals: Dict[Tuple[int, int], List[str]], k: int, lo: int, size: int, x: int) -> str:
    # "(k,lo):x (k,lo+1):x ..." over size entries; the numerals of each
    # range are made once per string, since rows often share their range
    nums = numerals.get((lo, size))
    if nums is None:
        nums = numerals[lo, size] = list(map(str, range(lo, lo + size)))
    return f"({k}," + f"):{x} ({k},".join(nums) + f"):{x}"


def _vector(c: Dict[Basis, int]) -> KernelVector:
    # the operations' constructor: takes ownership of c, which must be zero-free
    out = object.__new__(KernelVector)
    out._c = c
    return out


ZERO = KernelVector()


def expand(k: int, l: int) -> Word:
    """The basis word v^k u^l B u^-l v^-k, reduced."""
    return V ** k * U ** l * BIG_B * U ** (-l) * V ** (-k)


# Budget of project, in deposits: a v-run v^e at coset (m, n) deposits
# |e|·|m| coefficients, so one large exponent passes the parse budget but
# not this one.  B^250000 deposits 250,000, and
# `kleinbraid kernel-project "v^2 u^500000 v^-2 u^-500000"`, at the budget,
# takes 0.8-1.1 s and prints 13.8 MB (Python 3.11, 2 shared CPUs), about
# 0.4 s of it filling the dict of 1,000,000 coefficients from two intervals.
MAX_DEPOSITS = 1_000_000

# Rows under construction: row k -> the intervals (lo, hi, c) deposited on
# it, flat, each adding c·e(k, l) for lo <= l < hi.  One-entry deposits
# are kept apart as coefficients, since they need no interval.
_Rows = Dict[int, List[int]]


def _deposit(rows: _Rows, points: Dict[Basis, int], row: int, lo: int, hi: int, c: int) -> None:
    """Add c·e(row, l) for lo <= l < hi."""
    if hi - lo == 1:
        key = (row, lo)
        new = points.get(key, 0) + c
        if new:
            points[key] = new
        else:
            points.pop(key, None)
        return
    spans = rows.get(row)
    if spans is None:
        rows[row] = [lo, hi, c]
    else:
        spans += (lo, hi, c)


def _materialise(rows: _Rows, points: Dict[Basis, int]) -> KernelVector:
    """The vector of the deposits, each constant segment of a row written by
    one C-level dict.update.  A row of one interval is its one segment; a
    row of more is merged by its difference map {l: change of the
    coefficient at l}, read in sorted order.  A segment whose running sum
    is 0 is not written, so the result is zero-free."""
    acc: Dict[Basis, int] = {}
    for row, spans in rows.items():
        if len(spans) == 3:
            lo, hi, c = spans
            if c:
                acc.update(zip(zip(repeat(row), range(lo, hi)), repeat(c)))
            continue
        marks: Dict[int, int] = {}
        flat = iter(spans)
        for lo, hi, c in zip(flat, flat, flat):
            marks[lo] = marks.get(lo, 0) + c
            marks[hi] = marks.get(hi, 0) - c
        total = lo = 0
        for l in sorted(marks):
            if total:
                acc.update(zip(zip(repeat(row), range(lo, l)), repeat(total)))
            total += marks[l]
            lo = l
    if not acc:
        return _vector(points)
    return _vector(_accumulate(acc, points.items()))


def project(w: Word) -> KernelVector:
    """Coordinates of a kernel word in the basis; rejects words not in ker gmap.

    The coset scan costs O(1) per v-letter, however many coefficients the
    letter deposits: its row is one interval of constant value, [0, k) or
    [k, 0), recorded as it is (_deposit), and the rows are written out
    once at the end (_materialise).  A v-run whose rows would
    take the deposits, counted as |e·m| per v-run, past MAX_DEPOSITS raises
    ValueError before it is recorded."""
    rows: _Rows = {}
    points: Dict[Basis, int] = {}
    m = n = deposits = 0
    for g, e in w.runs:
        if g == "u":
            m += -e if n & 1 else e
            continue
        if m:
            deposits += abs(e * m)
            if deposits > MAX_DEPOSITS:
                raise ValueError(
                    f"project deposits more than the budget of {MAX_DEPOSITS} coefficients"
                )
            # a v deposits the row of the coset it leaves; a v^-1 steps back
            # first and deposits the negated row of the coset it enters.  Row
            # n gets k = εn·m entries: [0, k) of value step for k > 0, or
            # [k, 0) of value -step; even and odd rows take the two signs of k
            step = 1 if e > 0 else -1
            back = (step - 1) // 2
            even = (0, m, step) if m > 0 else (m, 0, -step)
            odd = (-m, 0, -step) if m > 0 else (0, -m, step)
            for row in range(n + back, n + e + back, step):
                lo, hi, c = odd if row & 1 else even
                _deposit(rows, points, row, lo, hi, c)
        n += e
    if m or n:
        raise ValueError(f"word is not in ker gmap: image ({m},{n}) != (0,0)")
    return _materialise(rows, points)


# ---------------------------------------------------------------------------
# induced operators

Term = Tuple[int, int, int, int, int]  # (coef, a, p, b, q), a and b = ±1
TermKey = Tuple[int, int, int, int]  # (a, p, b, q)


def _keyed(terms: Iterable[Term]) -> Iterator[Tuple[TermKey, int]]:
    for c, a, p, b, q in terms:
        if a not in (1, -1) or b not in (1, -1):
            raise ValueError(f"slopes must be ±1, got a={a}, b={b}")
        yield (a, p, b, q), c


class KernelOperator:
    """Linear operator on kernel vectors: an entry (a, p, b, q): coef of
    terms[π] sends e(k, l) with k ≡ π (mod 2) to coef·e(a·k + p, b·l + q).
    Each table is merged and zero-free."""

    __slots__ = ("terms",)

    def __init__(self, even: Iterable[Term], odd: Iterable[Term]) -> None:
        self.terms = (_accumulate({}, _keyed(even)), _accumulate({}, _keyed(odd)))

    def __call__(self, vec: KernelVector) -> KernelVector:
        return KernelVector(
            [
                ((a * k + p, b * l + q), c * x)
                for (k, l), x in vec.items()
                for (a, p, b, q), c in self.terms[k % 2].items()
            ]
        )

    def __add__(self, other: "KernelOperator") -> "KernelOperator":
        (even, odd), (even2, odd2) = self.terms, other.terms
        return _operator(
            _accumulate(dict(even), even2.items()), _accumulate(dict(odd), odd2.items())
        )

    def __neg__(self) -> "KernelOperator":
        return _operator(*({key: -c for key, c in t.items()} for t in self.terms))

    def __sub__(self, other: "KernelOperator") -> "KernelOperator":
        return self + (-other)

    def __matmul__(self, other: "KernelOperator") -> "KernelOperator":
        # a = ±1 keeps the parity of k, so a term of other at parity π lands
        # at parity π + p, where the table self.terms[(π + p) % 2] applies
        tables = [
            _accumulate(
                {},
                [
                    ((a2 * a, a2 * p + p2, b2 * b, b2 * q + q2), c2 * c)
                    for (a, p, b, q), c in other.terms[parity].items()
                    for (a2, p2, b2, q2), c2 in self.terms[(parity + p) % 2].items()
                ],
            )
            for parity in (0, 1)
        ]
        return _operator(*tables)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelOperator) and self.terms == other.terms

    def __repr__(self) -> str:
        even, odd = ([(c,) + key for key, c in sorted(t.items())] for t in self.terms)
        return f"KernelOperator({even!r}, {odd!r})"


def _operator(even: Dict[TermKey, int], odd: Dict[TermKey, int]) -> KernelOperator:
    # the operations' constructor: takes ownership of tables that are
    # zero-free and have ±1 slopes by construction
    out = object.__new__(KernelOperator)
    out.terms = (even, odd)
    return out


ID = KernelOperator([(1, 1, 0, 1, 0)], [(1, 1, 0, 1, 0)])
RHO = KernelOperator([(1, -1, 0, -1, 0)], [(-1, -1, 0, 1, 0)])


# c_operator and theta_operator have one term per parity, with coefficient
# and slopes ±1, so their tables are written directly: nothing to merge or check
def c_operator(p: int, q: int) -> KernelOperator:
    return _operator({(1, p, 1, q): 1}, {(1, p, 1, -q): 1})


def theta_operator(m: int, n: int) -> KernelOperator:
    e = eps(n)
    return _operator({(1, 0, e, 0): e}, {(1, 0, e, -2 * m): e})


def theta_ab(t: KleinElt, vec: KernelVector) -> KernelVector:
    return theta_operator(t.m, t.n)(vec)


def rho_ab(vec: KernelVector) -> KernelVector:
    return RHO(vec)


def c_ab(p: int, q: int, vec: KernelVector) -> KernelVector:
    return c_operator(p, q)(vec)


def c_agreement(p: int, q: int, x: Word) -> bool:
    """project(v^p u^q · x · u^-q v^-p) == c_ab(p, q, project(x)) for kernel x."""
    conjugated = (V ** p * U ** q).conj(x)
    return project(conjugated) == c_ab(p, q, project(x))


# ---------------------------------------------------------------------------
# the special word families and their projections as progression boxes

Box = Tuple[int, int, int, int, int, int, int]  # (coef, k0, dk, l0, dl, I, J), dk even
Atom = Tuple[int, int, int, str, Tuple[int, ...]]  # (coef, p, q, family, args)


def word_t(k: int, r: int) -> Word:
    """u^k (B^εr u^-εr)^(k·εr), for r in {0, 1}."""
    if r not in (0, 1):
        raise ValueError(f"r must be 0 or 1, got {r}")
    er = eps(r)
    return U ** k * (BIG_B ** er * U ** (-er)) ** (k * er)


def word_i(k: int) -> Word:
    """v^k (v B)^-k."""
    return V ** k * (V * BIG_B) ** (-k)


def word_o(k: int, l: int) -> Word:
    """[v^2k, u^l]."""
    return comm(V ** (2 * k), U ** l)


def word_j(k: int, l: int) -> Word:
    """v^2k (v u^l)^-2k."""
    return V ** (2 * k) * (V * U ** l) ** (-2 * k)


def word_q(k: int, l: int) -> Word:
    """u^k v^(2l+1) u^k v^-(2l+1)."""
    return U ** k * V ** (2 * l + 1) * U ** k * V ** (-2 * l - 1)


def q_identity_check(k: int, l: int) -> bool:
    """Exact word identity expressing word_q(k, l) through word_o and basis words.

    word_q(k,l) == word_o(l,k)^-1 · (Π_{i=1..|k|} expand(2l, -i + k(1+σk)/2))^σk,
    the product taken in increasing i.  Only defined for k ≠ 0.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    sk = sign_of(k)
    shift = k * (1 + sk) // 2
    prod = ONE
    for i in range(1, abs(k) + 1):
        prod = prod * expand(2 * l, -i + shift)
    rhs = word_o(l, k).inv() * prod ** sk
    return word_q(k, l) == rhs


def boxes_unit(k: int, l: int) -> Tuple[Box, ...]:
    return ((1, k, 0, l, 0, 1, 1),)


def boxes_t(k: int, r: int) -> Tuple[Box, ...]:
    if r not in (0, 1):
        raise ValueError(f"r must be 0 or 1, got {r}")
    sk = sign_of(k)
    shift = (sk * (1 - 2 * r) - 1) // 2
    return ((sk, 0, 0, sk * (1 + shift), sk, 1, abs(k)),)


def boxes_i(k: int) -> Tuple[Box, ...]:
    # k moves by ±1, so the odd and the even i make one box each
    sk = sign_of(k)
    off = (1 - sk) // 2
    return (
        (-sk, sk + off, 2 * sk, 0, 0, (abs(k) + 1) // 2, 1),
        (-sk, 2 * sk + off, 2 * sk, 0, 0, abs(k) // 2, 1),
    )


def boxes_o(k: int, l: int) -> Tuple[Box, ...]:
    sk, sl = sign_of(k), sign_of(l)
    lo = (sl - 1) // 2
    hi = (1 + sl) // 2
    return (
        (sk * sl, sk, 2 * sk, lo - sl, -sl, abs(k), abs(l)),
        (-sk * sl, sk - 1, 2 * sk, sl - hi, sl, abs(k), abs(l)),
    )


def boxes_j(k: int, l: int) -> Tuple[Box, ...]:
    sk, sl = sign_of(k), sign_of(l)
    hi = (1 + sl) // 2
    return ((-sk * sl, sk, 2 * sk, sl * (1 - hi), sl, abs(k), abs(l)),)


def boxes_q(k: int, l: int) -> Tuple[Box, ...]:
    sk = sign_of(k)
    off = (1 + sk) // 2
    tail = (sk, 2 * l, 0, sk - off, sk, 1, abs(k))
    return tuple((-box[0],) + box[1:] for box in boxes_o(l, k)) + (tail,)


# family name -> its progression boxes
BOXES = {
    "unit": boxes_unit,
    "t": boxes_t,
    "i": boxes_i,
    "o": boxes_o,
    "j": boxes_j,
    "q": boxes_q,
}


def _from_boxes(boxes: Iterable[Box]) -> KernelVector:
    """The vector Σ coef·e(k0 + dk·i, l0 + dl·j) over the boxes' points,
    written through the rows of project: with dl = ±1, each row of a box is
    one interval."""
    rows: _Rows = {}
    points: Dict[Basis, int] = {}
    for coef, k0, dk, l0, dl, nk, nl in boxes:
        if dl == 1 or dl == -1:
            lo = l0 if dl == 1 else l0 - nl + 1
            spans = ((lo, lo + nl),) if nl > 0 else ()
        else:
            spans = tuple((l0 + dl * j, l0 + dl * j + 1) for j in range(nl))
        for i in range(nk):
            for lo, hi in spans:
                _deposit(rows, points, k0 + dk * i, lo, hi, coef)
    return _materialise(rows, points)


def tilde_t(k: int, r: int) -> KernelVector:
    return _from_boxes(boxes_t(k, r))


def tilde_i(k: int) -> KernelVector:
    return _from_boxes(boxes_i(k))


def tilde_o(k: int, l: int) -> KernelVector:
    return _from_boxes(boxes_o(k, l))


def tilde_j(k: int, l: int) -> KernelVector:
    return _from_boxes(boxes_j(k, l))


def tilde_q(k: int, l: int) -> KernelVector:
    return _from_boxes(boxes_q(k, l))
