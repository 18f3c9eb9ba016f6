"""The Klein bottle group Z ⋊ Z and the small integer indicators.

Product convention: (m, n) · (m', n') = (m + (-1)^n m', n + n').  The
identity is (0, 0) and (m, n)^-1 = (-(-1)^n m, -n).

delta/eps/sign_of/omega are the parity and sign gadgets the whole formula
layer is written in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


def delta(n: int) -> int:
    """0 for even n, 1 for odd n."""
    return n % 2


def eps(n: int) -> int:
    """(-1)**n."""
    return 1 - 2 * (n % 2)


def sign_of(l: int) -> int:
    """-1, 0 or 1."""
    return (l > 0) - (l < 0)


def omega(n: int) -> int:
    """1 iff n == 0."""
    return 1 if n == 0 else 0


@dataclass(frozen=True, slots=True)
class KleinElt:
    """An element (m, n) of Z ⋊ Z."""

    m: int = 0
    n: int = 0

    def __mul__(self, other: "KleinElt") -> "KleinElt":
        return KleinElt(self.m + eps(self.n) * other.m, self.n + other.n)

    def inv(self) -> "KleinElt":
        return KleinElt(-eps(self.n) * self.m, -self.n)

    def __pow__(self, k: int) -> "KleinElt":
        # even n: the twist never flips m, so (m, n)^k = (k·m, k·n);
        # odd n: (m, n)^2 = (0, 2n), so only an odd power keeps m.
        if self.n % 2 == 0:
            return KleinElt(k * self.m, k * self.n)
        return KleinElt(self.m * (k % 2), k * self.n)

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


K_IDENTITY = KleinElt(0, 0)


_KLEIN = re.compile(r"^\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def parse_klein(text: str) -> KleinElt:
    m = _KLEIN.match(text)
    if m is None:
        raise ValueError(f"expected '(m,n)' with signed integers, got {text!r}")
    return KleinElt(int(m.group(1)), int(m.group(2)))
