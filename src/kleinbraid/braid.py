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
SIGMA_SQ.  apply_images writes the image of a braid under such generator
images in one pass over its runs, with the seam writer of the words
module, as theta does.  gmap is the projection F(u, v) → Z ⋊ Z sending
u ↦ (1,0), v ↦ (0,1); its kernel is where the kernel module lives.

H is an automorphism that commutes with lsigma and lies over the
Klein-bottle map h(m, n) = (m + δn, n), held as the images of the
generators u, v, x = (1; 1,0), y = (1; 0,1) (check_h confirms it):

    H:    u ↦ u,  v ↦ v u^-1,  x ↦ x,  y ↦ (v u^-1 v^-1 u^-1; 1, 1)
    H^-1: u ↦ u,  v ↦ v u,     x ↦ x,  y ↦ (B; -1, 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache

from .kleinpi import K_IDENTITY, KleinElt, delta, eps
from .words import (
    BIG_B, MAX_RUNS, ONE, U, V, Run, Word, _b_power_runs, _from_reduced, _join, parse_word,
)

# Budget of theta: it writes B^(m-δn), 4 runs per unit of m, so |m| up to
# MAX_TWIST keeps that word within the parse budget of the words module.
MAX_TWIST = MAX_RUNS // 4


def _conj(t: KleinElt) -> int:
    """The exponent c of the conjugator B^c of theta(t): c = m - δn."""
    return t.m - t.n % 2


@lru_cache(maxsize=1024)
def _substitution(m: int, d: int) -> tuple[int, Word, tuple[Run, ...], tuple[Run, ...], int]:
    """The substitution φ of theta(m, n), with d = δn, built once per twist
    in use: εn, φ(v), the runs of φ(v) and of φ(v)^-1, and the runs that
    each further factor of a power of φ(v) adds."""
    # B v = u v u, so φ(v) is v u^(-2m) or u v u^(1-2m); their powers gain
    # 2 runs per factor, except u v u^-1 at m = δn = 1, whose keep 3
    img_v = Word(((("u", 1),) if d else ()) + (("v", 1), ("u", d - 2 * m)))
    return eps(d), img_v, img_v.runs, img_v.inv().runs, 0 if m == d else 2


def _phi(t: KleinElt, w: Word, runs: list[Run]) -> None:
    """Join φ_t(w) onto the reduced runs, where φ_t is the substitution of
    theta(t): u ↦ u^(εn), v ↦ B^(δn) v u^(-2m).

    One piece per run of w: u^(εn·k) for a u-run, merged into the last run
    inline, and for a v-run v^k the 2- or 3-run tuple of φ_t(v) or
    φ_t(v)^-1 when |k| = 1, else the power φ_t(v)^k, joined at its seam.
    So the cost is linear in the pieces.  A v-run whose power would take
    the runs past MAX_RUNS raises ValueError before that power is built."""
    m, d = t.m, t.n % 2
    e, img_v, fwd, back, per = _substitution(m, d)
    for g, k in w.runs:
        if g == "u":
            k *= e
            if runs and runs[-1][0] == "u":
                k += runs[-1][1]
                if k:
                    runs[-1] = ("u", k)
                else:
                    runs.pop()
            else:
                runs.append(("u", k))
        elif len(runs) + len(fwd) + per * (abs(k) - 1) > MAX_RUNS:
            raise ValueError(
                f"theta({m}, {t.n}) of v^{k} exceeds the budget of {MAX_RUNS} runs"
            )
        else:
            _join(runs, fwd if k == 1 else back if k == -1 else (img_v ** k).runs)


def _check_twist(t: KleinElt) -> None:
    if abs(t.m) > MAX_TWIST:
        raise ValueError(f"twist m = {t.m} exceeds the budget |m| <= {MAX_TWIST} of theta")


def _join_theta(t: KleinElt, w: Word, runs: list[Run]) -> None:
    """Join theta(t)(w) = B^c · φ_t(w) · B^-c, c = m - δn, onto the reduced
    runs.  φ_t(w) is written on a list of its own, so the budget of _phi
    counts it reduced, on its own; then B^c, φ_t(w) and B^-c are joined at
    their seams.  The caller checks the twist budget."""
    if not t.m and not t.n % 2:  # theta(0, even n) is the identity
        _join(runs, w.runs)
        return
    body: list[Run] = []
    _phi(t, w, body)
    c = _conj(t)
    _join(runs, _b_power_runs(c))
    _join(runs, body)
    _join(runs, _b_power_runs(-c))


def theta(t: KleinElt, w: Word) -> Word:
    """Image of w under the twisting automorphism with parameters t.

    theta(t)(w) = P · φ_t(w) · P^-1 with P = B^(m-δn), where _phi writes
    the substitution φ_t; _join_theta joins the three into one run list.
    The budget of _phi counts the runs of φ_t(w) reduced, on its own, so
    images of up to MAX_RUNS runs are written.  The empty word and the
    identity twists return w as it is, so pure twists build no P.  |m|
    over MAX_TWIST raises ValueError before anything is built.  n enters
    only through its parity, so its size costs nothing and has no budget.
    """
    _check_twist(t)
    if not w.runs or not t.m and not t.n % 2:
        return w
    runs: list[Run] = []
    _join_theta(t, w, runs)
    return _from_reduced(tuple(runs))


@dataclass(frozen=True, slots=True)
class BraidElt:
    """A braid (word; twist) in normal form; the word is always reduced."""

    word: Word = ONE
    twist: KleinElt = K_IDENTITY

    def __mul__(self, other: "BraidElt") -> "BraidElt":
        """(w; t) · (w'; t') = (w · theta(t)(w'); t t'): theta(t)(w') is
        joined straight onto a copy of w's runs, so the product writes one
        run list, with no word product."""
        _check_twist(self.twist)
        twist = self.twist * other.twist
        if not other.word.runs:
            return BraidElt(self.word, twist)
        runs = list(self.word.runs)
        _join_theta(self.twist, other.word, runs)
        return BraidElt(_from_reduced(tuple(runs)), twist)

    def inv(self) -> "BraidElt":
        t = self.twist.inv()
        return BraidElt(theta(t, self.word.inv()), t)

    def __pow__(self, k: int) -> "BraidElt":
        # square and multiply, reading the bits of |k| from the top
        base, out = self if k >= 0 else self.inv(), B_IDENTITY
        for bit in f"{abs(k):b}":
            out = out * out
            if bit == "1":
                out = out * base
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

    A twist with |m| over MAX_TWIST raises ValueError before anything is
    built, and so does a word whose image would write more than MAX_RUNS
    runs (apply_images)."""
    _check_twist(a.twist)
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


@lru_cache(maxsize=64)
def _factor(image: BraidElt, sign: int) -> tuple[BraidElt, tuple[tuple[int, tuple[Run, ...]], ...]]:
    """f = image^sign, and per parity d of the prefix twist t of one factor
    f = (w_f; s) in apply_images: the runs the factor writes at most, and
    the runs of its conjugator step B^(c(t·s) - c(t)), which depends on d
    alone.  φ_t writes one run per u-run of w_f and at most 2|k| + d per
    v-run v^k, and the step 4 per unit of its exponent."""
    f = image if sign > 0 else image.inv()
    per_parity = []
    for d in (0, 1):
        step = _conj(KleinElt(0, d) * f.twist) + d
        pieces = sum(1 if g == "u" else 2 * abs(k) + d for g, k in f.word.runs)
        per_parity.append((pieces + 4 * abs(step), (BIG_B ** step).runs))
    return f, tuple(per_parity)


def apply_images(images: tuple[BraidElt, ...], a: BraidElt) -> BraidElt:
    """Image of a = (w; m, n) under the map with the given images of
    (u, v, x, y): the product of image(g)^k over the runs g^k of w, then
    image(x)^m · image(y)^n.

    Written in one pass, with no braid product over the runs of w.  A run
    g^k is |k| factors (w_f; s) = image(g)^±1.  theta(t) is conjugation by
    B^c(t), c(t) = m - δn, after φ_t, so a factor at the prefix twist t
    adds θ_t(w_f) = B^c(t) φ_t(w_f) B^-c(t) to the word.  The runs so far
    are kept as the word without its closing B^-c(t): each factor joins
    φ_t(w_f), then only the step B^(c(t·s) - c(t)) of the conjugator, and
    the pass closes with B^-c(t).  Every piece is joined at its seam, so
    the cost is linear in the runs written.  The twists' part
    image(x)^m · image(y)^n is a product of two braid powers, written as
    one more factor.

    A factor with the trivial twist leaves t, and so the conjugator, as
    it is, so its run is written as the one word power φ_t(w_f)^|k|,
    linear in the runs of that power (H and H^-1 send u and v to such
    factors).

    Before a run's factors are written, the runs they write are counted
    from |k| (_factor), before any cancellation, and a run written as a
    power of a single run counts as one; a count past MAX_RUNS raises
    ValueError before the run's first piece is built (for a power, before
    the power is built; its one factor φ_t(w_f) is built to count it).
    """
    runs: list[Run] = []
    t, written = K_IDENTITY, 0
    for g, k in a.word.runs:
        f, per_parity = _factor(images[0 if g == "u" else 1], 1 if k > 0 else -1)
        n, d = abs(k), t.n % 2
        piece: list[Run] = []
        trivial = f.twist == K_IDENTITY
        if trivial:
            # t and the conjugator stay put along the run: its factors are
            # the one word power φ_t(w_f)^|k|, a single run if φ_t(w_f) is
            _phi(t, f.word, piece)
            written += 1 if len(piece) == 1 else n * per_parity[d][0]
        else:
            # an odd twist of f alternates the parity of the prefix twist
            same = (n + 1) // 2 if f.twist.n % 2 else n
            written += same * per_parity[d][0] + (n - same) * per_parity[1 - d][0]
        if written > MAX_RUNS:
            raise ValueError(
                f"the image of {g}^{k} exceeds the budget of {MAX_RUNS} runs written"
            )
        if trivial:
            _join(runs, (_from_reduced(tuple(piece)) ** n).runs)
            continue
        for _ in range(n):
            _phi(t, f.word, runs)
            _join(runs, per_parity[t.n % 2][1])
            t = t * f.twist
    tail = images[2] ** a.twist.m * images[3] ** a.twist.n
    _phi(t, tail.word, runs)
    _join(runs, (BIG_B ** -_conj(t)).runs)
    return BraidElt(_from_reduced(tuple(runs)), t * tail.twist)


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
