"""Exact arithmetic on reduced words in the free group F(u, v).

Words are run-length encoded: a tuple of (generator, exponent) pairs with
nonzero exponents and distinct adjacent generators.  The empty tuple is the
identity.  Every word is kept reduced, so two words represent the same group
element iff they compare equal as values.

The canonical form is set up in one place: ``Word(runs)`` always reduces
its runs.  The group operations start from reduced operands and write
reduced runs directly, so each costs time linear in the runs it writes: a
product cancels only at the seam, an inverse reverses, and a power w^n
writes w = p c p^-1 with c cyclically reduced and returns p c^n p^-1, which
needs no cancellation at all (Lyndon-Schupp, *Combinatorial Group Theory*,
I.2).  They wrap their runs with the private ``_from_reduced``, which skips
the reduction; no public constructor does.

Reduced runs are extended by one seam writer, ``_join``: it appends a
reduced piece to a run list and cancels at the seam only.  Each writer
builds its result in one run list and wraps it once:

- ``Word(runs)`` joins one run at a time, and the product joins its right
  operand onto a copy of the left one's runs;
- parse_word merges each one-run term into the last run inline and joins
  the runs of a ``B`` power;
- ``braid.theta`` joins B^c, the substitution φ_t(w) and B^-c onto one
  list, and a braid product joins that image straight onto a copy of its
  left word's runs; ``braid._phi`` merges each u-run inline and joins the
  image of each v-run;
- ``braid.apply_images`` joins the image of each run.

``B`` abbreviates the fixed word u v u v^-1.  Input text may use it as
shorthand (with an optional exponent); canonical output never emits it.
parse_word expands a ``B`` power only while the word stays within
MAX_RUNS runs (4 per unit of exponent), and fails before building the
power that would take it past that budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Tuple

Run = Tuple[str, int]


class WordParseError(ValueError):
    """Malformed word text; ``pos`` is the offending character offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _reduce(runs: Iterable[Run]) -> tuple[Run, ...]:
    out: list[Run] = []
    for gen, exp in runs:
        if exp:
            _join(out, ((gen, exp),))
    return tuple(out)


def _inv_runs(runs: tuple[Run, ...]) -> tuple[Run, ...]:
    return tuple([(g, -e) for g, e in reversed(runs)])


def _join(runs: list[Run], piece: tuple[Run, ...]) -> None:
    """Append the reduced piece to the reduced runs, keeping them reduced.

    Both are reduced, so they cancel at the seam only: the cost is the
    runs cancelled plus the runs appended."""
    j = 0
    while j < len(piece) and runs and runs[-1][0] == piece[j][0]:
        e = runs[-1][1] + piece[j][1]
        j += 1
        if e:
            runs[-1] = (runs[-1][0], e)
            break
        runs.pop()
    runs.extend(piece[j:])


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word over {u, v}; all operations are exact and pure."""

    runs: tuple[Run, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "runs", _reduce(self.runs))

    def __mul__(self, other: "Word") -> "Word":
        if not other.runs:
            return self
        if not self.runs:
            return other
        runs = list(self.runs)
        _join(runs, other.runs)
        return _from_reduced(tuple(runs))

    def inv(self) -> "Word":
        return _from_reduced(_inv_runs(self.runs))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inv() ** -n
        runs = self.runs
        if n == 1 or not runs:
            return self
        if n == 0:
            return Word()
        # peel w = p · core · p^-1
        i, j = 0, len(runs) - 1
        while i < j and runs[i][0] == runs[j][0] and runs[i][1] == -runs[j][1]:
            i += 1
            j -= 1
        p, core = runs[:i], runs[i : j + 1]
        (g, a), (h, b) = core[0], core[-1]
        if len(core) == 1:
            middle = ((g, n * a),)
        elif g != h:
            middle = core * n
        else:
            # core = g^a X g^b with a + b != 0; the cyclic rotation
            # g^(a+b) X is cyclically reduced, and core^n is
            # g^a (X g^(a+b))^(n-1) X g^b.
            x = core[1:-1]
            middle = ((g, a),) + (x + ((g, a + b),)) * (n - 1) + x + ((g, b),)
        return _from_reduced(p + middle + _inv_runs(p))

    def conj(self, x: "Word") -> "Word":
        """self * x * self.inv()."""
        return self * x * self.inv()

    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def exponent_sums(self) -> tuple[int, int]:
        """(total u-exponent, total v-exponent) of the word."""
        pu = sum(e for g, e in self.runs if g == "u")
        pv = sum(e for g, e in self.runs if g == "v")
        return pu, pv

    def __str__(self) -> str:
        if not self.runs:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.runs)


def _from_reduced(runs: tuple[Run, ...]) -> Word:
    # the group operations' constructor: runs must already be a reduced tuple
    w = object.__new__(Word)
    object.__setattr__(w, "runs", runs)
    return w


ONE = Word()
U = Word((("u", 1),))
V = Word((("v", 1),))
BIG_B = Word((("u", 1), ("v", 1), ("u", 1), ("v", -1)))
_B_INV_RUNS = BIG_B.inv().runs


def _b_power_runs(n: int) -> tuple[Run, ...]:
    """The runs of B^n: B and B^-1 are cyclically reduced, so B^n is the
    runs of B, or of B^-1, repeated |n| times."""
    return BIG_B.runs * n if n >= 0 else _B_INV_RUNS * -n


def comm(x: Word, y: Word) -> Word:
    """Commutator x y x^-1 y^-1."""
    return x * y * x.inv() * y.inv()


# one term after optional whitespace, or the first character that starts
# no term (\s is exactly str.isspace on str patterns)
_TERM = re.compile(r"\s*(?:([uvB1])(?:\^(-?\d+))?|(\S))")

# Budget of parse_word: B^250000 writes 1,000,000 runs, and
# `kleinbraid kernel-project "B^250000"` takes 0.7 s (Python 3.11, 2 CPUs).
MAX_RUNS = 1_000_000


def parse_word(text: str) -> Word:
    """Parse ``term*`` where ``term := ("u"|"v"|"B"|"1") ("^" integer)?``.

    Terms are read by one scan of the text: a one-run term is merged into
    the last run inline, and a ``B`` power is joined at its seam."""
    runs: list[Run] = []
    for m in _TERM.finditer(text):
        sym, digits, bad = m.groups()
        if bad is not None:
            raise WordParseError(
                f"expected 'u', 'v', 'B' or '1', found {bad!r}", m.start(3)
            )
        exp = 1 if digits is None else int(digits)
        if sym == "B":
            # B^exp writes 4·|exp| runs; other terms write one run per term
            # of the text, so only this expansion can outgrow the input
            if len(runs) + 4 * abs(exp) > MAX_RUNS:
                raise WordParseError(
                    f"word expands to more than the budget of {MAX_RUNS} runs", m.start(1)
                )
            _join(runs, _b_power_runs(exp))
        elif sym == "1" or not exp:
            continue
        elif runs and runs[-1][0] == sym:
            exp += runs[-1][1]
            if exp:
                runs[-1] = (sym, exp)
            else:
                runs.pop()
        else:
            runs.append((sym, exp))
    return _from_reduced(tuple(runs))
