"""Normalisation of homomorphisms Z ⊕ Z → Z ⋊ Z and the decision table.

A homomorphism is described by the images of (1,0) and (0,1); it is
well-defined iff those images commute.  Conjugation in Z ⋊ Z fixes second
coordinates, shifts the first coordinate of an image by 2a whenever its
own second coordinate is odd, and flips the signs of both first
coordinates simultaneously.  Each conjugacy class therefore contains
exactly one representative of the four shapes

    type 1:  (1,0) ↦ (i, 2·s1+1)   (0,1) ↦ (0, 2·s2)
    type 2:  (1,0) ↦ (i, 2·s1+1)   (0,1) ↦ (i, 2·s2+1)
    type 3:  (1,0) ↦ (0, 2·s1)     (0,1) ↦ (i, 2·s2+1)
    type 4:  (1,0) ↦ (r1, 2·s1)    (0,1) ↦ (r2, 2·s2),  r1 ≥ 0

with i ∈ {0, 1}.  decide() classifies the Borsuk-Ulam status of a class.
Because multiplying the second image by central (1; 0, 2k) braids moves a
witness across raw second coordinates mod 4, the status of a type-4 class
depends on s2 only through its parity; decide() reduces s2 mod 2 first and
records in the branch label whenever the unreduced reading would differ.
The reduced class, taken with i = 0, is the representative that witnesses
and certificates are built for (Verdict.representative).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .kleinpi import KleinElt


@dataclass(frozen=True)
class HomDescriptor:
    """Images of the two generators of Z ⊕ Z."""

    img10: KleinElt
    img01: KleinElt


def validate(h: HomDescriptor) -> bool:
    """True iff the two images commute (i.e. h extends to Z ⊕ Z)."""
    return h.img10 * h.img01 == h.img01 * h.img10


@dataclass(frozen=True, slots=True)
class HomClass:
    """A normalised representative; fields unused by a type must be zero."""

    kind: int
    i: int = 0
    s1: int = 0
    s2: int = 0
    r1: int = 0
    r2: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (1, 2, 3, 4):
            raise ValueError(f"kind must be 1..4, got {self.kind}")
        if self.kind != 4 and self.i not in (0, 1):
            raise ValueError(f"i must be 0 or 1, got {self.i}")
        if self.kind == 4 and self.r1 < 0:
            raise ValueError(f"r1 must be >= 0, got {self.r1}")
        if self.kind != 4 and (self.r1 or self.r2):
            raise ValueError(f"type {self.kind} has no r1/r2, got r1={self.r1}, r2={self.r2}")
        if self.kind == 4 and self.i:
            raise ValueError(f"type 4 has no i, got i={self.i}")

    def images(self) -> tuple[KleinElt, KleinElt]:
        if self.kind == 1:
            return KleinElt(self.i, 2 * self.s1 + 1), KleinElt(0, 2 * self.s2)
        if self.kind == 2:
            return (
                KleinElt(self.i, 2 * self.s1 + 1),
                KleinElt(self.i, 2 * self.s2 + 1),
            )
        if self.kind == 3:
            return KleinElt(0, 2 * self.s1), KleinElt(self.i, 2 * self.s2 + 1)
        return KleinElt(self.r1, 2 * self.s1), KleinElt(self.r2, 2 * self.s2)

    def describe(self) -> str:
        if self.kind == 4:
            return f"type 4 (r1={self.r1}, r2={self.r2}, s1={self.s1}, s2={self.s2})"
        return f"type {self.kind} (i={self.i}, s1={self.s1}, s2={self.s2})"


@dataclass(frozen=True, slots=True)
class Verdict:
    bu: bool
    branch: str
    reduced: HomClass

    @property
    def representative(self) -> HomClass:
        """The reduced class taken with i = 0: the one class that witnesses
        and certificates are built for."""
        return replace(self.reduced, i=0)


def normalize(h: HomDescriptor) -> HomClass:
    """The unique listed representative conjugate to h."""
    if not validate(h):
        raise ValueError(
            f"images {h.img10} and {h.img01} do not commute; "
            "not a homomorphism on Z ⊕ Z"
        )
    m1, n1 = h.img10.m, h.img10.n
    m2, n2 = h.img01.m, h.img01.n
    odd1, odd2 = n1 % 2, n2 % 2
    if odd1 and not odd2:
        # commutation forces m2 == 0
        return HomClass(1, i=m1 % 2, s1=(n1 - 1) // 2, s2=n2 // 2)
    if odd1 and odd2:
        # commutation forces m1 == m2
        return HomClass(2, i=m1 % 2, s1=(n1 - 1) // 2, s2=(n2 - 1) // 2)
    if not odd1 and odd2:
        # commutation forces m1 == 0
        return HomClass(3, i=m2 % 2, s1=n1 // 2, s2=(n2 - 1) // 2)
    if m1 < 0 or (m1 == 0 and m2 < 0):
        m1, m2 = -m1, -m2
    return HomClass(4, r1=m1, r2=m2, s1=n1 // 2, s2=n2 // 2)


def central_shift_equiv(c: HomClass, c2: HomClass) -> bool:
    """Same representative under decide(): the classes agree apart from s2
    and their s2 agree mod 2, so the central shift (1; 0, 2), which moves
    s2 by 2, joins them."""
    return decide(c).reduced == decide(c2).reduced


def _decide_type4(r1: int, r2: int, s1: int, s2: int) -> tuple[bool, str]:
    # s2 is compared to zero exactly: callers pass either the mod-2 reduced
    # value or the literal one, which is how the two readings differ.
    if r2 * s1 != 0:
        return True, "(d)(i)"
    if s2 == 0:
        if r2 == 0 and s1 != 0:
            return True, "(d)(ii)"
        if s1 == 0 and r1 != 0 and r2 % 2 == 0:
            return True, "(d)(iii)"
    return False, "(d)"


# Verdicts and reduced classes are frozen, so decide shares one object per
# value while it is cached: a caller that keeps many verdicts keeps one of
# each, not a copy per call.
@lru_cache(maxsize=1024)
def _reduced(kind: int, i: int, s1: int, s2: int, r1: int, r2: int) -> HomClass:
    return HomClass(kind, i, s1, s2, r1, r2)


@lru_cache(maxsize=1024)
def _verdict(bu: bool, branch: str, reduced: HomClass) -> Verdict:
    return Verdict(bu, branch, reduced)


def decide(c: HomClass) -> Verdict:
    """Borsuk-Ulam status of a normalised class."""
    z = c.s2 % 2
    # a class with s2 in {0, 1} is its own reduced class, and the others
    # share one: decide keeps no copy of its own
    reduced = c if c.s2 == z else _reduced(c.kind, c.i, c.s1, z, c.r1, c.r2)
    if c.kind == 1:
        return _verdict(z == 0, "(a)", reduced)
    if c.kind == 2:
        return _verdict(True, "(b)", reduced)
    if c.kind == 3:
        return _verdict(c.s1 != 0, "(c)", reduced)
    bu, branch = _decide_type4(c.r1, c.r2, c.s1, z)
    literal_bu, _ = _decide_type4(c.r1, c.r2, c.s1, c.s2)  # unreduced reading
    if literal_bu != bu:
        # only possible when s2 is even but nonzero; the reduced reading wins
        branch += f" [s2={c.s2} reduced to {z}]"
    return _verdict(bu, branch, reduced)
