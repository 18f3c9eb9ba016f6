"""The abelianised kernel of gmap as a sparse integer module.

ker(gmap) is free on the conjugates  basis(k, l) = v^k u^l B u^-l v^-k,
and its abelianisation is the direct sum ⊕ Z·e(k,l).

A KernelVector is held as rows of segments: row k maps to a sorted tuple
of disjoint segments (lo, hi, c), each meaning c·e(k, l) for lo <= l < hi.
No segment is zero and two segments that touch have different
coefficients, so the form is canonical and equality is structural.  The
one constructor, _vector, sets it up from deposited segments, which may
overlap, be empty or carry 0: a row of one deposit is taken as it is, and
a row of several is read through its difference map {l: change of the
coefficient at l}, a segment ending only where the running sum changes.
KernelVector(...), project, _from_boxes, +, -, scalar multiples and
KernelOperator all deposit segments and call it; str writes each segment
by one join.

project() rewrites a kernel word into those coordinates by an abelianised
coset scan over the transversal {v^n u^(εn·m)}: u-letters only move
between cosets, while each v-letter crossing coset (m, n) deposits the row

    σk · Σ_{i=1..|k|} e(n, σk·i - (1+σk)/2),        k = εn·m

(a v^-1 letter first steps back to (m, n-1) and deposits the negated row
evaluated there).  That row is one segment of l, [0, k) or [k, 0), of
constant value, so the scan costs O(1) per v-letter however many
coefficients it deposits.  The roundtrip project(expand(k, l)) == e(k, l)
pins the scan's correctness, and the scan is in turn the reference for
the T/I/O/J/Q families below.

theta_ab / rho_ab / c_ab apply the operators induced on the abelianisation:

    theta_operator(m, n): e(k, l) ↦ εn · e(k, εn·l - 2·δk·m)
    RHO:                  e(k, l) ↦ εk · e(-k, ε(k+1)·l)
    c_operator(p, q):     e(k, l) ↦ e(k+p, l + εk·q)

Every induced operator, and every sum and composition of them, is a sum of
terms e(k, l) ↦ ±e(±k + p, ±l + q) whose signs and offsets depend only on
the parity of k.  KernelOperator holds one as a merged, zero-free table
of such terms per parity; distinct affine maps with ±1 slopes agree on at
most a line, so equality of the tables is operator equality for all (k, l).
A term maps a segment to a segment, reversed when its l-slope is -1.

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
from bisect import bisect_right
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Tuple, TypeVar, Union

from .braid import gmap
from .kleinpi import KleinElt, eps, sign_of
from .words import BIG_B, ONE, U, V, Word, comm

Basis = Tuple[int, int]
Segment = Tuple[int, int, int]  # (lo, hi, c): c·e(k, l) for lo <= l < hi
_Items = Union[Mapping[Basis, int], Iterable[Tuple[Basis, int]], None]
_Key = TypeVar("_Key")
# deposits: row k -> the segments deposited on it, in any order
_Rows = Dict[int, List[Segment]]
_LO = itemgetter(0)


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
    """Finitely supported integer vector over the basis pairs (k, l), held
    as canonical rows of segments (see the module docstring), in
    increasing k."""

    __slots__ = ("_rows",)

    def __init__(self, coeffs: _Items = None) -> None:
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ()
        rows: _Rows = {}
        for (k, l), c in items:
            rows.setdefault(k, []).append((l, l + 1, c))
        self._rows = _vector(rows)._rows

    @staticmethod
    def unit(k: int, l: int) -> "KernelVector":
        return _vector({k: [(l, l + 1, 1)]})

    def __getitem__(self, key: Basis) -> int:
        k, l = key
        segs = self._rows.get(k, ())
        i = bisect_right(segs, l, key=_LO) - 1
        return segs[i][2] if i >= 0 and l < segs[i][1] else 0

    def items(self) -> Iterator[Tuple[Basis, int]]:
        """The nonzero coefficients ((k, l), c), in increasing (k, l)."""
        for k, segs in self._rows.items():
            for lo, hi, c in segs:
                for l in range(lo, hi):
                    yield (k, l), c

    def __add__(self, other: "KernelVector") -> "KernelVector":
        return _combine((1, self), (1, other))

    def __sub__(self, other: "KernelVector") -> "KernelVector":
        return _combine((1, self), (-1, other))

    def __neg__(self) -> "KernelVector":
        return _combine((-1, self))

    def __rmul__(self, scalar: int) -> "KernelVector":
        return _combine((scalar, self))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KernelVector) and self._rows == other._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __str__(self) -> str:
        # "(k,l):c" per entry in increasing (k, l), a segment at a time
        if not self._rows:
            return "0"
        numerals: Dict[Tuple[int, int], List[str]] = {}
        return " ".join(
            _segment(numerals, k, lo, hi - lo, c)
            for k, segs in self._rows.items()
            for lo, hi, c in segs
        )

    def __repr__(self) -> str:
        return f"KernelVector({dict(self.items())!r})"


def _segment(numerals: Dict[Tuple[int, int], List[str]], k: int, lo: int, size: int, x: int) -> str:
    # "(k,lo):x (k,lo+1):x ..." over size entries; the numerals of each
    # range are made once per string, since rows often share their range
    if size == 1:
        return f"({k},{lo}):{x}"
    nums = numerals.get((lo, size))
    if nums is None:
        nums = numerals[lo, size] = list(map(str, range(lo, lo + size)))
    return f"({k}," + f"):{x} ({k},".join(nums) + f"):{x}"


def _vector(rows: _Rows) -> KernelVector:
    """The vector of the deposited segments, in canonical form: a segment
    ends only where a row's running sum changes, so none is zero and
    touching segments differ."""
    out: Dict[int, Tuple[Segment, ...]] = {}
    for k, deposits in sorted(rows.items()):
        if len(deposits) == 1:
            lo, hi, c = seg = deposits[0]
            if c and lo < hi:
                out[k] = (seg,)
            continue
        marks: Dict[int, int] = {}
        for lo, hi, c in deposits:
            if c and lo < hi:
                marks[lo] = marks.get(lo, 0) + c
                marks[hi] = marks.get(hi, 0) - c
        segs = []
        total = start = 0
        for l in sorted(marks):
            change = marks[l]
            if change:
                if total:
                    segs.append((start, l, total))
                total += change
                start = l
        if segs:
            out[k] = tuple(segs)
    vec = object.__new__(KernelVector)
    vec._rows = out
    return vec


def _combine(*terms: Tuple[int, KernelVector]) -> KernelVector:
    """Σ scalar·vector over the (scalar, vector) terms."""
    rows: _Rows = {}
    for s, vec in terms:
        for k, segs in vec._rows.items():
            scaled = segs if s == 1 else [(lo, hi, s * c) for lo, hi, c in segs]
            rows.setdefault(k, []).extend(scaled)
    return _vector(rows)


def expand(k: int, l: int) -> Word:
    """The basis word v^k u^l B u^-l v^-k, reduced."""
    return V ** k * U ** l * BIG_B * U ** (-l) * V ** (-k)


# Budget of project, in deposited coefficients: a v-run v^e at coset
# (m, n) deposits |e|·|m| of them, so one large exponent passes the parse
# budget but not this one.  The scan itself costs O(1) per v-letter, so the
# budget bounds what a projection prints: B^250000 deposits 250,000, and
# `kleinbraid kernel-project "v^2 u^500000 v^-2 u^-500000"`, at the budget,
# builds its two segments in microseconds and spends about 0.25 s of its
# 0.5 s printing 13.8 MB (Python 3.11, 2 shared CPUs).
MAX_DEPOSITS = 1_000_000


def project(w: Word) -> KernelVector:
    """Coordinates of a kernel word in the basis.

    A word not in ker gmap raises ValueError before the scan, from one pass
    over its runs.  The coset scan costs O(1) per v-letter, however many
    coefficients the letter deposits: its row is one segment of constant
    value, [0, k) or [k, 0), deposited as it is, and _vector merges the
    rows at the end.  A v-run whose rows would take the deposits, counted
    as |e·m| per v-run, past MAX_DEPOSITS raises ValueError before it is
    recorded."""
    image = gmap(w)
    if image.m or image.n:
        raise ValueError(f"word is not in ker gmap: image ({image.m},{image.n}) != (0,0)")
    rows: _Rows = {}
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
                rows.setdefault(row, []).append(odd if row & 1 else even)
        n += e
    return _vector(rows)


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
        # a term moves a segment of row k to row a·k + p, shifted by q and
        # reversed when b = -1
        rows: _Rows = {}
        for k, segs in vec._rows.items():
            for (a, p, b, q), c in self.terms[k % 2].items():
                moved = rows.setdefault(a * k + p, [])
                if b == 1:
                    moved.extend([(lo + q, hi + q, c * x) for lo, hi, x in segs])
                else:
                    moved.extend([(q + 1 - hi, q + 1 - lo, c * x) for lo, hi, x in segs])
        return _vector(rows)

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
    deposited as rows like project's: with dl = ±1, each row of a box is
    one segment."""
    rows: _Rows = {}
    for coef, k0, dk, l0, dl, nk, nl in boxes:
        if dl == 1 or dl == -1:
            lo = l0 if dl == 1 else l0 - nl + 1
            spans = [(lo, lo + nl, coef)]
        else:
            spans = [(l0 + dl * j, l0 + dl * j + 1, coef) for j in range(nl)]
        for i in range(nk):
            rows.setdefault(k0 + dk * i, []).extend(spans)
    return _vector(rows)


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
