"""The pure 2-strand braid group of the Klein bottle as F(u, v) ⋊ (Z ⋊ Z).

An element is a pair (w; m, n) of a reduced word and a Klein twist.  The
twist acts on words through the automorphisms

    theta(m, n):  u ↦ B^(m-δn) u^(εn) B^(-m+δn)
                  v ↦ B^m v u^(-2m) B^(-m+δn)

(with B = u v u v^-1), which also send B to B^(εn).  The product law is
(w; t) · (w'; t') = (w · theta(t)(w'); t t').

lsigma is conjugation by the Artin generator σ.  On u-runs, v-runs and
pure twists it takes the closed forms

    lsigma(u^r; 0,0) = ((B u^-1)^r B^-r ; r, 0)
    lsigma(v^s; 0,0) = ((u v)^-s (u B)^δs ; 0, s)
    lsigma(1; m, 0)  = (1 ; m, 0)
    lsigma(1; 0, n)  = (B^δn ; 0, n)

and it is held, like H below, as the images of the generators u, v, x, y
(r = s = m = n = 1 above):

    lsigma: u ↦ (B u^-1 B^-1; 1, 0),  v ↦ (v^-1 B; 0, 1),  x ↦ x,  y ↦ (B; 0, 1)

σ² itself is the pure braid (B; 0, 0), so lsigma∘lsigma is conjugation by
SIGMA_SQ.  gmap is the projection F(u, v) → Z ⋊ Z sending u ↦ (1,0),
v ↦ (0,1); its kernel is where the kernel module lives.

H is an automorphism that commutes with lsigma and lies over the
Klein-bottle map h(m, n) = (m + δn, n), held as the images of the
generators u, v, x = (1; 1,0), y = (1; 0,1) (check_h confirms it):

    H:    u ↦ u,  v ↦ v u^-1,  x ↦ x,  y ↦ (v u^-1 v^-1 u^-1; 1, 1)
    H^-1: u ↦ u,  v ↦ v u,     x ↦ x,  y ↦ (B; -1, 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache

from .kleinpi import K_IDENTITY, KleinElt, delta, eps
from .words import BIG_B, MAX_RUNS, ONE, U, V, Word, _from_reduced, parse_word

# Budget of theta: it writes B^(m-δn), 4 runs per unit of m, so |m| up to
# MAX_TWIST keeps that word within the parse budget of the words module.
MAX_TWIST = MAX_RUNS // 4
# Budget of lsigma, in letters.  apply_images makes one product per run,
# each copying the image so far and twisting its piece by the prefix twist,
# so the cost is quadratic in the letters; a run budget would miss
# (u^1000 v^2)^60, 120 runs and 11.7 s.  At the budget, words whose prefix
# twist grows took 0.81 s ((u v^2)^666) and 1.0 s ((u^2 v^2)^500) and
# B^500 0.08 s, against 9.3 s for (u v^2)^2000 (medians of three, Python
# 3.11 on a shared 2-CPU host).  The tests, demos, selftest suites and
# benchmark pass lsigma words of 186 letters at most.
MAX_LSIGMA_LETTERS = 2000


def theta(t: KleinElt, w: Word) -> Word:
    """Image of w under the twisting automorphism with parameters t.

    With P = B^(m-δn), theta(m, n) is conjugation by P after the
    substitution φ: u ↦ u^(εn), v ↦ B^(δn) v u^(-2m), that is
    theta(t)(w) = P · φ(w) · P^-1.  φ(w) is written piece by piece, and
    each piece is joined to the reduced runs so far at its seam only: one
    run per u-run of w, and per v-run v^k the 2- or 3-run tuple of φ(v) or
    φ(v)^-1 (built once per call) when |k| = 1, else the power φ(v)^k.  So
    the runs so far stay reduced, φ(w) needs no reduction pass, and the
    cost is linear in the runs of φ(w) plus |m|.  The empty word is
    returned as it is, so pure twists build no P.  |m| over MAX_TWIST
    raises ValueError, and so does a v-run whose power would take the runs
    so far past MAX_RUNS, before that power is built.  n enters only
    through its parity, so its size costs nothing and has no budget.
    """
    m, d = t.m, t.n % 2
    if abs(m) > MAX_TWIST:
        raise ValueError(f"twist m = {m} exceeds the budget |m| <= {MAX_TWIST} of theta")
    if not w.runs or not m and not d:  # theta(0, even n) is the identity
        return w
    e = eps(d)
    img_v = BIG_B ** d * V * U ** (-2 * m)
    fwd, back = img_v.runs, img_v.inv().runs
    # φ(v)^k has len(fwd) + per·(|k| - 1) runs: φ(v) is v u^(-2m) or
    # u v u^(1-2m), whose powers gain 2 runs per factor, except u v u^-1
    # at m = δn = 1, whose powers keep 3
    per = 0 if m == d else 2
    runs: list[tuple[str, int]] = []
    for g, k in w.runs:
        if g == "u":
            piece: tuple[tuple[str, int], ...] = (("u", e * k),)
        elif len(runs) + len(fwd) + per * (abs(k) - 1) > MAX_RUNS:
            raise ValueError(
                f"theta({m}, {t.n}) of v^{k} exceeds the budget of {MAX_RUNS} runs"
            )
        else:
            piece = fwd if k == 1 else back if k == -1 else (img_v ** k).runs
        # runs and piece are both reduced, so they cancel only at the seam
        while runs and piece and runs[-1][0] == piece[0][0]:
            (h, a), b, piece = runs.pop(), piece[0][1], piece[1:]
            if a + b:
                runs.append((h, a + b))
                break
        runs.extend(piece)
    conj = BIG_B ** (m - d)
    return conj * _from_reduced(tuple(runs)) * conj.inv()


@dataclass(frozen=True, slots=True)
class BraidElt:
    """A braid (word; twist) in normal form; the word is always reduced."""

    word: Word = ONE
    twist: KleinElt = K_IDENTITY

    def __mul__(self, other: "BraidElt") -> "BraidElt":
        return BraidElt(
            self.word * theta(self.twist, other.word), self.twist * other.twist
        )

    def inv(self) -> "BraidElt":
        t = self.twist.inv()
        return BraidElt(theta(t, self.word.inv()), t)

    def __pow__(self, k: int) -> "BraidElt":
        base = self if k >= 0 else self.inv()
        out = B_IDENTITY
        k = abs(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __str__(self) -> str:
        return f"({self.word} ; {self.twist.m}, {self.twist.n})"


B_IDENTITY = BraidElt()
SIGMA_SQ = BraidElt(BIG_B, K_IDENTITY)


def bmul(a: BraidElt, b: BraidElt) -> BraidElt:
    return a * b


def p1(a: BraidElt) -> KleinElt:
    """Strand projection onto the twist coordinates."""
    return a.twist


def gmap(w: Word) -> KleinElt:
    """The homomorphism F(u, v) → Z ⋊ Z with u ↦ (1,0), v ↦ (0,1)."""
    m = n = 0
    for g, e in w.runs:
        if g == "u":
            m += eps(n) * e
        else:
            n += e
    return KleinElt(m, n)


def lsigma(a: BraidElt) -> BraidElt:
    """Conjugation by σ: the image of a under LSIGMA_IMAGES.

    A word of more than MAX_LSIGMA_LETTERS letters, or a twist with |m|
    over MAX_TWIST, raises ValueError before the first product."""
    letters = a.word.letter_length()
    if letters > MAX_LSIGMA_LETTERS:
        raise ValueError(
            f"lsigma of a word of {letters} letters exceeds the budget of "
            f"{MAX_LSIGMA_LETTERS} letters"
        )
    if abs(a.twist.m) > MAX_TWIST:
        raise ValueError(f"twist m = {a.twist.m} exceeds the budget |m| <= {MAX_TWIST} of theta")
    return apply_images(LSIGMA_IMAGES, a)


def rho(w: Word) -> Word:
    """Word coordinate of lsigma((w; 0, 0)).

    The twist coordinate of that image must equal gmap(w); a mismatch
    means LSIGMA_IMAGES and gmap disagree, so it is fatal.
    """
    full = lsigma(BraidElt(w, K_IDENTITY))
    if full.twist != gmap(w):
        raise RuntimeError(
            f"internal consistency failure: lsigma twist {full.twist} != gmap {gmap(w)}"
        )
    return full.word


# the generators u, v, x, y and their images under lsigma, H and H^-1
_X, _Y = BraidElt(ONE, KleinElt(1, 0)), BraidElt(ONE, KleinElt(0, 1))
_GENERATORS = (BraidElt(U), BraidElt(V), _X, _Y)
LSIGMA_IMAGES = (
    BraidElt(BIG_B * U.inv() * BIG_B.inv(), KleinElt(1, 0)),
    BraidElt(V.inv() * BIG_B, KleinElt(0, 1)),
    _X,
    BraidElt(BIG_B, KleinElt(0, 1)),
)
H_IMAGES = (
    BraidElt(U),
    BraidElt(V * U.inv()),
    _X,
    BraidElt(parse_word("v u^-1 v^-1 u^-1"), KleinElt(1, 1)),
)
H_INV_IMAGES = (BraidElt(U), BraidElt(V * U), _X, BraidElt(BIG_B, KleinElt(-1, 1)))


def apply_images(images: tuple[BraidElt, ...], a: BraidElt) -> BraidElt:
    """Image of a = (w; m, n) under the map with the given images of
    (u, v, x, y): the product of image(g)^k over the runs g^k of w, then
    image(x)^m · image(y)^n."""
    img_u, img_v, img_x, img_y = images
    out = B_IDENTITY
    for g, k in a.word.runs:
        out = out * (img_u if g == "u" else img_v) ** k
    return out * img_x ** a.twist.m * img_y ** a.twist.n


def _relation_failures(name: str, images: tuple[BraidElt, ...]) -> list[str]:
    """The defining relations y x y^-1 = x^-1 and t g t^-1 = theta(t)(g)
    (t in {x, y}, g in {u, v}) that the images of (u, v, x, y) break.

    Images that break none define an endomorphism (von Dyck), so identities
    between such maps that hold on the generators hold everywhere."""
    fails = []
    img_x, img_y = images[2:]
    if img_y * img_x * img_y.inv() != img_x.inv():
        fails.append(f"{name} breaks y x y^-1 = x^-1")
    for t, img_t in zip(_GENERATORS[2:], images[2:]):
        for g, img_g in zip(_GENERATORS[:2], images[:2]):
            theta_g = apply_images(images, BraidElt(theta(t.twist, g.word)))
            if img_t * img_g * img_t.inv() != theta_g:
                fails.append(f"{name} breaks t g t^-1 = theta(t)(g) at t = {t}, g = {g}")
    return fails


def check_h() -> None:
    """Check H and H^-1 exactly on the generators; raise if any check fails.

    The checks read H_IMAGES, H_INV_IMAGES and LSIGMA_IMAGES only, so a
    pass is kept per value of the three and images that pass are not
    checked again; images not yet checked, or that failed, are checked."""
    _check_h(H_IMAGES, H_INV_IMAGES, LSIGMA_IMAGES)


@cache
def _check_h(images: tuple[BraidElt, ...], inv_images: tuple[BraidElt, ...],
             lsigma_images: tuple[BraidElt, ...]) -> None:
    fails = _relation_failures("H", images) + _relation_failures("H^-1", inv_images)
    for g in _GENERATORS:
        h_g = apply_images(images, g)
        for law, ok in (
            ("H^-1∘H = id", apply_images(inv_images, h_g) == g),
            ("H∘H^-1 = id", apply_images(images, apply_images(inv_images, g)) == g),
            (
                "H∘lsigma = lsigma∘H",
                apply_images(images, apply_images(lsigma_images, g))
                == apply_images(lsigma_images, h_g),
            ),
            ("p1∘H = h∘p1", p1(h_g) == KleinElt(g.twist.m + delta(g.twist.n), g.twist.n)),
        ):
            if not ok:
                fails.append(f"{law} fails at {g}")
    if fails:
        raise RuntimeError(f"internal consistency failure: {'; '.join(fails)}")


def decompose(w: Word) -> tuple[int, int, Word]:
    """Split w as u^r v^s x with x in the kernel of gmap.

    (r, s) are the coordinates of gmap(w) and x = v^-s u^-r w.
    """
    g = gmap(w)
    r, s = g.m, g.n
    x = V ** (-s) * U ** (-r) * w
    return r, s, x


def forced_word_exponents(a: BraidElt, b: BraidElt) -> tuple[int, int]:
    """The (a1, a2) word exponents forced on a when a·b·lsigma(a) = b.

    a1 = ε(n2)·m2·(ε(n1)-1) - m1·(1+ε(n1+n2)) and a2 = -2·n1, both even;
    reads only the twists of a and b.
    """
    m1, n1 = a.twist.m, a.twist.n
    m2, n2 = b.twist.m, b.twist.n
    a1 = eps(n2) * m2 * (eps(n1) - 1) - m1 * (1 + eps(n1 + n2))
    a2 = -2 * n1
    return a1, a2


def formula_blsiga(a: BraidElt, b: BraidElt) -> BraidElt:
    """Closed formula for b · lsigma(a) on normal forms.

    Must agree with bmul(b, lsigma(a)); kept as an independent transcription
    so the two routes cross-check each other.
    """
    a1, a2, x = decompose(a.word)
    b1, b2, y = decompose(b.word)
    m1, n1 = a.twist.m, a.twist.n
    m2, n2 = b.twist.m, b.twist.n

    word = (
        U ** b1
        * V ** b2
        * y
        * theta(KleinElt(m2, delta(n2)), (BIG_B * U.inv()) ** a1 * BIG_B ** (-a1))
        * theta(
            KleinElt(m2 + eps(n2) * a1, delta(n2)),
            (U * V) ** (-a2) * (U * BIG_B) ** delta(a2),
        )
        * theta(
            KleinElt(m2 + eps(n2) * a1, delta(n2) + delta(a2)),
            rho(x) * BIG_B ** delta(n1),
        )
    )
    twist = KleinElt(m2 + eps(n2) * (a1 + eps(a2) * m1), a2 + n1 + n2)
    return BraidElt(word, twist)


def formula_ablsiga(a: BraidElt, b: BraidElt) -> BraidElt:
    """Closed formula for a · b · lsigma(a) on normal forms.

    Must agree with bmul(bmul(a, b), lsigma(a)).
    """
    a1, a2, x = decompose(a.word)
    b1, b2, y = decompose(b.word)
    m1, n1 = a.twist.m, a.twist.n
    m2, n2 = b.twist.m, b.twist.n

    inner = rho(x) * BIG_B ** delta(n1)
    t = (U * V) ** (-a2) * (U * BIG_B) ** delta(a2) * theta(KleinElt(0, delta(a2)), inner)
    t = (BIG_B * U.inv()) ** a1 * BIG_B ** (-a1) * theta(KleinElt(a1, 0), t)
    word = (
        U ** a1
        * V ** a2
        * x
        * theta(KleinElt(m1, delta(n1)), U ** b1 * V ** b2 * y)
        * theta(KleinElt(m1 + eps(n1) * m2, delta(n1 + n2)), t)
    )
    twist = KleinElt(
        m1 + eps(n1) * m2 + eps(n1 + n2) * (a1 + eps(a2) * m1),
        2 * n1 + n2 + a2,
    )
    return BraidElt(word, twist)


_BRAID = re.compile(r"^\s*\(\s*(?P<word>[^;]*);\s*(?P<m>-?\d+)\s*,\s*(?P<n>-?\d+)\s*\)\s*$")


def parse_braid(text: str) -> BraidElt:
    """Parse ``(<word> ; m , n)`` with the word grammar of the words module."""
    m = _BRAID.match(text)
    if m is None:
        raise ValueError(f"expected '(<word> ; m , n)', got {text!r}")
    return BraidElt(parse_word(m.group("word")), KleinElt(int(m.group("m")), int(m.group("n"))))
