"""Construction, verification and bounded search of braid witness pairs.

A pair (a, b) in the Klein-bottle braid group certifies that a class fails
the Borsuk-Ulam property when three conditions hold exactly:

    (i)   a · b · lsigma(a) = b
    (ii)  p1(a) = image of (1, 0)
    (iii) p1(b · lsigma(b)) = image of (0, 1)

Explicit families cover every failing representative: the class that
decide() reduces to, with s2 in {0, 1}, taken with i = 0.  build_witness
carries the representative's pair to the requested class in one stated
way.  First, when i = 1, the automorphism H of braid.py: it commutes with
lsigma and lies over h(m, n) = (m + δn, n), which sends the images of each
i = 0 class of types 1-3 to those of the i = 1 class with the same s1 and
s2, so (a, b) ↦ (H(a), H(b)) carries witnesses of the one to witnesses of
the other.  Then the central shift: b ↦ b · (1; 0, 2)^k with k = s2 // 2
keeps condition (i) and moves s2 by 2k.

search_witness scans every pair with short words and small twists,
exhaustively, after sound pruning by the exponent constraints that
condition (i) forces.  The short words are bucketed by gmap and grouped
within a bucket by exponent sums.  The abelianised relation is linear in
those sums, so each choice of a's word and b's twist solves it for the one
level of b's words that can pass.  A pair that passes is tested next in the
finite quotient psi: F(u, v) → A5, u ↦ (0 1 2 3 4), v ↦ (0 1 2), at two
lookups in one multiplication table.  Only a pair that passes there, and
is no larger than the least pair found so far, is checked as the exact
word equation, which alone accepts a pair; psi is a homomorphism, so no
solution fails in A5 (Holt, Eick & O'Brien, *Handbook of Computational
Group Theory*, 2005).  psi of each short word is kept in
its bucket and evicted with it; the images under psi of the words twisted
by theta are folds over their runs, made per search, with no word built.
lsigma(a) is not computed per a-word: it is rho(w_a), cached beside the
word buckets across searches and evicted with them, times a factor that
depends on the a-bucket only, computed once per a-bucket in a search.
SearchBounds caps word_len and coord (MAX_WORD_LEN, MAX_COORD).
search_witness counts the candidate pairs from the bucket sizes, which
_bucket_sizes counts without building a word, and refuses more than
MAX_PAIRS before it builds any, so an oversized search fails at once
instead of running for minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .braid import (
    B_IDENTITY,
    H_IMAGES,
    SIGMA_SQ,
    BraidElt,
    apply_images,
    forced_word_exponents,
    gmap,
    lsigma,
    p1,
    rho,
    theta,
)
from .classifier import HomClass, decide
from .kleinpi import KleinElt, eps, omega
from .words import BIG_B, ONE, U, V, Word


class WitnessVerificationError(Exception):
    """One of the three witness conditions failed; carries the details."""

    def __init__(self, failures: list[str]) -> None:
        super().__init__("; ".join(failures))
        self.failures = failures


@dataclass(frozen=True, slots=True)
class WitnessReport:
    """A witness pair; verify_pair builds one only after all three
    conditions have held exactly."""

    a: BraidElt
    b: BraidElt
    source: str  # constructed | shifted | searched
    cls: HomClass


# Budgets of the bounded search.  There are 2·3^k - 1 reduced words of at
# most k letters, so word_len 10 already enumerates 118,097 of them.  The
# pairs grow linearly in coord and the theta images with |m|, so the cost
# grows faster than linearly: at word_len 4 the slowest class of the type
# 1-4 grid with parameters in [-1, 1] took 0.15 s at coord 100 and 7.5 s
# at coord 1000 (Python 3.11 on a 2-CPU host).
MAX_WORD_LEN = 10
MAX_COORD = 100
# The two caps above still admit 34,005,474 pairs for type 4 with
# (r1, r2, s1, s2) = (0, 1, 0, 1) at word_len 10, coord 2.  The scan costs
# 0.1-0.2 µs a pair on buckets already built: that class took 0.12 s for
# 597,816 pairs at word_len 8, coord 2, and 0.23 s for 2,230,980 at
# word_len 9, coord 1; with the buckets built first, 0.28 s and 0.70 s
# (medians of three, same host).  The largest search of the tests, demos,
# selftest suites and benchmark examines 17,689.
MAX_PAIRS = 1_000_000
# Budget of build_witness, on the representative's r1, r2 and s1 (its s2 is
# 0 or 1).  The pair's words grow linearly in each, and so does checking
# them.  At the budget the slowest branches took 0.85-1.08 s (type 4 with
# r1 = 10,000 and r2 odd) and 0.62-0.92 s (type 1 with i = 1), every other
# branch under 0.55 s (three runs each, Python 3.11 on a shared 2-CPU
# host).  Type 4 with s2 odd and r1, s1 both nonzero has words of about
# 4·|r1·s1| letters; lsigma refuses those whose image would write more than
# MAX_RUNS runs once the pair is built, after 0.7 s at most.
MAX_WITNESS_PARAM = 10_000


@dataclass(frozen=True)
class SearchBounds:
    word_len: int = 4  # reduced letter count of each word part
    coord: int = 2     # max |m|, |n| of each twist

    def __post_init__(self) -> None:
        if self.word_len < 0 or self.coord < 0:
            raise ValueError(
                f"search bounds must be non-negative, got word_len={self.word_len}, "
                f"coord={self.coord}"
            )
        if self.word_len > MAX_WORD_LEN or self.coord > MAX_COORD:
            raise ValueError(
                f"search bounds exceed the budget word_len <= {MAX_WORD_LEN}, "
                f"coord <= {MAX_COORD}, got word_len={self.word_len}, coord={self.coord}"
            )


@dataclass(frozen=True, slots=True)
class SearchResult:
    report: "WitnessReport | None"
    examined: int
    bounds: SearchBounds

    @property
    def found(self) -> bool:
        return self.report is not None


def verify_pair(a: BraidElt, b: BraidElt, cls: HomClass, source: str = "constructed") -> WitnessReport:
    """Check the three conditions exactly; raise with details on failure."""
    img10, img01 = cls.images()
    lhs = a * b * lsigma(a)
    first = p1(a)
    second = p1(b * lsigma(b))
    failures = []
    if lhs != b:
        failures.append(f"(i) a·b·lsigma(a) = {lhs} but b = {b}")
    if first != img10:
        failures.append(f"(ii) p1(a) = {first} but image of (1,0) is {img10}")
    if second != img01:
        failures.append(f"(iii) p1(b·lsigma(b)) = {second} but image of (0,1) is {img01}")
    if failures:
        raise WitnessVerificationError(failures)
    return WitnessReport(a, b, source, cls)


def _base_pair(rep: HomClass) -> tuple[BraidElt, BraidElt]:
    """Witness pair of a failing representative: i = 0 and s2 in {0, 1}."""
    if rep.kind == 1:
        # a failing type-1 representative has s2 = 1
        s = rep.s1
        x = V ** (2 * s + 2) * (BIG_B * V ** 2) ** (-s - 1)
        a = BraidElt(V ** (-(4 * s + 2)) * x, KleinElt(0, 2 * s + 1))
        return a, BraidElt(ONE, KleinElt(0, 1))
    if rep.kind == 3:
        # a failing type-3 representative has s1 = 0
        return B_IDENTITY, BraidElt(V, KleinElt(0, rep.s2))
    r1, r2, s = rep.r1, rep.r2, rep.s1
    if rep.s2:
        w = omega(s)
        a = BraidElt(
            V ** (-2 * s) * (U ** (2 * r1 - 1) * V ** -1) ** (2 * s) * BIG_B ** (-r1),
            KleinElt(r1, 2 * s),
        )
        return a, BraidElt(U ** (-w * r2) * BIG_B ** (1 - w), KleinElt(0, 1))
    if r2 % 2 == 0:
        # forces r1 == 0 and s1 == 0 for a failing class
        return B_IDENTITY, BraidElt(ONE, KleinElt(r2 // 2, 0))
    # r2 odd: collapse (b1·σ)^-r2 · σ^-1 into the pure group via σ² = (B;0,0)
    a_gen = BraidElt(U ** -2, KleinElt(1, 0))
    b_gen = BraidElt(U ** -1)
    c = b_gen * lsigma(b_gen) * SIGMA_SQ
    return a_gen ** r1, c.inv() ** ((r2 + 1) // 2) * b_gen


def build_witness(cls: HomClass) -> WitnessReport:
    """Construct and re-verify a witness pair for a failing class."""
    verdict = decide(cls)
    if verdict.bu:
        raise ValueError(
            f"{cls.describe()} has the Borsuk-Ulam property; no witness exists"
        )
    rep = verdict.representative
    if max(abs(rep.r1), abs(rep.r2), abs(rep.s1)) > MAX_WITNESS_PARAM:
        raise ValueError(
            f"witness for {cls.describe()} exceeds the budget |r1|, |r2|, |s1| <= "
            f"{MAX_WITNESS_PARAM}"
        )
    a, b = _base_pair(rep)
    if cls.i:
        a, b = apply_images(H_IMAGES, a), apply_images(H_IMAGES, b)
    k = cls.s2 // 2
    if k:
        b = b * BraidElt(ONE, KleinElt(0, 2 * k))
    return verify_pair(a, b, cls, source="shifted" if k else "constructed")


# ---------------------------------------------------------------------------
# bounded exhaustive search

# word lists grow about 3x per letter, so keep only the few lengths in use
_WORD_CACHE_SIZE = 4


def _short_words(max_len: int) -> tuple[Word, ...]:
    """All reduced words with at most max_len letters."""
    out = [ONE]
    frontier: list[tuple[tuple[tuple[str, int], ...], tuple[str, int]]] = [((), ("", 0))]
    for _ in range(max_len):
        nxt = []
        for runs, last in frontier:
            for g in ("u", "v"):
                for e in (1, -1):
                    if (g, -e) == last:
                        continue
                    new = runs + ((g, e),)
                    nxt.append((new, (g, e)))
                    out.append(Word(new))
        frontier = nxt
    return tuple(out)


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _bucket_sizes(max_len: int) -> dict[tuple[int, int], int]:
    """The number of words in each gmap bucket of _words_by_gmap(max_len),
    counted without building a word: reduced words extend letter by letter,
    so a count per (last letter, gmap of the word so far) carries over to
    one more letter, as in a transfer-matrix count."""
    sizes = {(0, 0): 1}
    ends: dict[tuple[tuple[str, int], int, int], int] = {(("", 0), 0, 0): 1}
    for _ in range(max_len):
        longer: dict[tuple[tuple[str, int], int, int], int] = {}
        for (last, m, n), count in ends.items():
            for g in ("u", "v"):
                for e in (1, -1):
                    if (g, -e) == last:
                        continue
                    key = ((g, e), m + eps(n) * e, n) if g == "u" else ((g, e), m, n + e)
                    longer[key] = longer.get(key, 0) + count
        for (_, m, n), count in longer.items():
            sizes[m, n] = sizes.get((m, n), 0) + count
        ends = longer
    return sizes


_Buckets = dict[tuple[int, int], tuple[tuple[tuple[int, int], tuple[tuple[Word, int, int], ...]], ...]]


@lru_cache(maxsize=_WORD_CACHE_SIZE)
def _words_by_gmap(max_len: int) -> tuple[_Buckets, dict[Word, Word]]:
    """Short words bucketed by gmap, each bucket grouped by exponent sums,
    each word held with psi(w) and its letter length; and beside them the
    cache of rho(w), filled as searches reach each w.

    The cache pays although lsigma is linear: the benchmark's pass of 100
    searches at word_len 6, coord 1 (seed 1) looks up rho 8,175 times for
    316 distinct words."""
    buckets: dict[tuple[int, int], dict[tuple[int, int], list[tuple[Word, int, int]]]] = {}
    for w in _short_words(max_len):
        g = gmap(w)
        entry = (w, _psi(w), w.letter_length())
        buckets.setdefault((g.m, g.n), {}).setdefault(w.exponent_sums(), []).append(entry)
    grouped = {
        key: tuple((sums, tuple(ws)) for sums, ws in groups.items())
        for key, groups in buckets.items()
    }
    return grouped, {}


# ---------------------------------------------------------------------------
# the A5 quotient: psi: F(u, v) → A5, u ↦ (0 1 2 3 4), v ↦ (0 1 2)

# every element order of A5 divides 30, so x^e = x^(e mod 30)
_A5_EXPONENT = 30


@cache
def _a5() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """A5 as the indices 0-59: (mul, power), where mul[x][y] is the index
    of x·y and power[x][e] that of x^e for 0 <= e < 30.  Index 0 is the
    identity, 1 is psi(u) and 2 is psi(v).

    The 60 permutations are found breadth-first from the identity by right
    multiplication with the generators, and each row of mul is read off an
    earlier one: row x·g is z ↦ x·(g·z).  Built on the first search, not at
    import, and kept for the process; it takes about 0.5 ms."""
    gens = ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))  # (0 1 2 3 4), (0 1 2) as i ↦ p[i]
    perms = [(0, 1, 2, 3, 4)]
    index = {perms[0]: 0}
    steps: list[tuple[int, int]] = []  # steps[y - 1] = (x, g): y = x·gens[g]
    for x, p in enumerate(perms):  # perms grows while it is read
        for g, q in enumerate(gens):
            pq = tuple(p[i] for i in q)
            if pq not in index:
                index[pq] = len(perms)
                perms.append(pq)
                steps.append((x, g))
    # z ↦ g·z for each generator g
    left = [[index[tuple(q[i] for i in p)] for p in perms] for q in gens]
    mul = [list(range(len(perms)))]
    for x, g in steps:
        row = mul[x]
        mul.append([row[z] for z in left[g]])
    power = []
    for x, row in enumerate(mul):
        cycle, y = [0], x
        while y:
            cycle.append(y)
            y = row[y]
        power.append(tuple(cycle * (_A5_EXPONENT // len(cycle))))
    return tuple(map(tuple, mul)), tuple(power)


_PSI_U, _PSI_V = 1, 2


def _fold(images: tuple[int, int], w: Word) -> int:
    """The image of w under the homomorphism F(u, v) → A5 that sends u and
    v to the given images: one product per run of w."""
    mul, power = _a5()
    pu, pv = power[images[0]], power[images[1]]
    x = 0
    for g, e in w.runs:
        x = mul[x][(pu if g == "u" else pv)[e % _A5_EXPONENT]]
    return x


def _psi(w: Word) -> int:
    """The image of w under psi: u ↦ (0 1 2 3 4), v ↦ (0 1 2)."""
    return _fold((_PSI_U, _PSI_V), w)


def _psi_images(t: KleinElt) -> tuple[int, int]:
    """The images of u and v under psi∘theta(t), from the table alone.

    theta(t) is φ followed by conjugation by P = B^(m-δn), with
    φ(u) = u^(εn) and φ(v) = B^(δn) v u^(-2m), so it depends on t only
    through (m, n mod 2); _fold with these images is psi(theta(t)(w))."""
    mul, power = _a5()
    d = t.n % 2
    b = _fold((_PSI_U, _PSI_V), BIG_B)
    p = power[b][(t.m - d) % _A5_EXPONENT]
    p_inv = power[p][_A5_EXPONENT - 1]
    phi_u = power[_PSI_U][eps(d) % _A5_EXPONENT]
    phi_v = mul[mul[power[b][d]][_PSI_V]][power[_PSI_U][-2 * t.m % _A5_EXPONENT]]
    return mul[mul[p][phi_u]][p_inv], mul[mul[p][phi_v]][p_inv]


def _ab_image(word: Word, twist: KleinElt) -> tuple[int, int, int, int]:
    pu, pv = word.exponent_sums()
    return pu, pv, twist.m, twist.n


def _ab_mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]):
    # image of the braid product in (Z² ⋊ (Z ⋊ Z)), with the word part
    # abelianised: theta(m, n) acts on (p, q) as (εn·p + 2(δn - m)·q, q)
    px, qx, mx, nx = x
    py, qy, my, ny = y
    e = eps(nx)
    d = nx % 2
    return (
        px + e * py + 2 * (d - mx) * qy,
        qx + qy,
        mx + e * my,
        nx + ny,
    )


def _candidate_b_twists(
    b1: int, b2: int, target: KleinElt, coord: int
) -> list[KleinElt]:
    """Twists (m2, n2) with p1(b·lsigma(b)) == target for a word of gmap (b1, b2)."""
    if (target.n - b2) % 2:
        return []
    n2 = (target.n - b2) // 2
    if abs(n2) > coord:
        return []
    if (n2 + b2) % 2:
        # first coordinate constraint is m2-free: ε(n2)·b1 must hit the target
        if eps(n2) * b1 != target.m:
            return []
        return [KleinElt(m2, n2) for m2 in range(-coord, coord + 1)]
    num = target.m - eps(n2) * b1
    if num % 2:
        return []
    m2 = num // 2
    if abs(m2) > coord:
        return []
    return [KleinElt(m2, n2)]


def search_witness(cls: HomClass, bounds: SearchBounds = SearchBounds()) -> SearchResult:
    """Scan all pairs within bounds for a verified witness.

    Candidate words are every reduced word of letter length <= word_len
    (which includes B and its short conjugates); twists have coordinates
    bounded by coord.  Condition (ii) fixes a's twist t_a, condition (iii)
    pins b's twist t_b given its word's gmap, and the exponents forced by
    condition (i) select a's word bucket, so the scan is exhaustive over the
    bounded space.  The number of pairs follows from the bucket sizes
    before any word is built; a search of more than MAX_PAIRS pairs raises
    ValueError instead of running.

    A pair is checked as the word equation

        w_a · theta(t_a)(w_b) · theta(t_a·t_b)(w_ls) = w_b,

    where (w_ls; ·) = lsigma(a), after two necessary stages.  First the
    abelianised relation, which matches the twists too.  With b's exponent
    sums (p, q) it reads lhs = (-level(p, q), 0, m_b, n_b), where lhs is its
    left side at p = q = 0 and level is linear with coefficients from t_a
    alone.  So each b-bucket's words are indexed by level once per search,
    and each (w_a, t_b) computes lhs once and looks up the one level that
    passes.  Then the equation's image under psi,

        psi(w_a) · psi_{t_a}(w_b) · psi_{t_a·t_b}(w_ls) = psi(w_b),

    where psi_t = psi∘theta(t) is the fold of w's runs over the two images
    psi_t(u) and psi_t(v), read off the table: theta(t) depends on t only
    through (m, n mod 2).  psi(w) is held beside each word in the buckets,
    psi_{t_a}(w_b) is folded once per b-word per search, and
    psi_{t_a·t_b}(w_ls) once per (w_a, t_b) whose level is not empty.
    Only a pair that passes both builds theta(t_a)(w_b), and the tail
    theta(t_a·t_b)(w_ls) once per (w_a, t_b) for its first such pair.
    lsigma(a) is taken apart as the group law gives it,

        lsigma((w_a; t_a)) = (rho(w_a); gmap(w_a)) · lsigma((1; t_a)),

    so w_ls = rho(w_a) · theta(gmap(w_a))(w_L) with (w_L; ·) = lsigma((1; t_a)).
    rho(w_a) is cached beside the word buckets, across searches; every
    a-word of a bucket shares gmap(w_a), the bucket key, and the scan runs
    a-bucket by a-bucket, so the loop order alone computes the second
    factor once per a-bucket, and w_ls and its abelian image once per
    a-word, at one word product each.  examined counts every pair of the
    bounded space the scan decides, filtered or not.  The returned pair is
    the deterministic minimum by size, then text, re-verified on the braid
    engine by verify_pair; a pair's size is the letters of its two words
    plus the coordinates |m| + |n| of its two twists.  The letter length is
    held beside each word in the buckets, so a pair's size is known before
    its check: once a pair is found, a pair strictly larger skips the exact
    check; a pair of equal size is still checked, since the key then
    compares texts.
    """
    img10, img01 = cls.images()
    if abs(img10.m) > bounds.coord or abs(img10.n) > bounds.coord:
        return SearchResult(None, 0, bounds)
    t_a = img10
    a2 = -2 * t_a.n
    sizes = _bucket_sizes(bounds.word_len)
    # per a-bucket, every (t_b, b-bucket) whose pairs condition (i) sends to it
    plan: dict[int, list[tuple[KleinElt, tuple[int, int]]]] = {}
    examined = 0
    for (b1, b2), b_size in sizes.items():
        for t_b in _candidate_b_twists(b1, b2, img01, bounds.coord):
            a1, _ = forced_word_exponents(BraidElt(ONE, t_a), BraidElt(ONE, t_b))
            if (a1, a2) in sizes:
                plan.setdefault(a1, []).append((t_b, (b1, b2)))
                examined += sizes[a1, a2] * b_size
    if examined > MAX_PAIRS:
        raise ValueError(
            f"search of {examined} candidate pairs exceeds the budget of "
            f"{MAX_PAIRS} at word_len={bounds.word_len}, coord={bounds.coord}"
        )
    buckets, rhos = _words_by_gmap(bounds.word_len)
    mul = _a5()[0]
    w_l = lsigma(BraidElt(ONE, t_a)).word
    images_a = _psi_images(t_a)
    twist_a = (0, 0, t_a.m, t_a.n)
    twist_size_a = abs(t_a.m) + abs(t_a.n)
    # per b-bucket, its (w_b, psi(w_b), psi_{t_a}(w_b), letters of w_b) by
    # the level of their exponent sums
    b_levels: dict[tuple[int, int], dict[int, list[tuple[Word, int, int, int]]]] = {}
    # ((size, texts), pair) of the least pair found so far; a pair of
    # larger size cannot take its place, so it skips the exact check
    best: tuple[tuple[int, str, str], tuple[BraidElt, BraidElt]] | None = None
    for a1, sides in plan.items():
        b_sides = []
        for t_b, b_key in sides:
            levels = b_levels.get(b_key)
            if levels is None:
                levels = b_levels[b_key] = {}
                for (pu, pv), entries in buckets[b_key]:
                    level = _ab_mul(twist_a, (pu, pv, 0, 0))[0] - pu
                    levels.setdefault(level, []).extend(
                        (w, p, _fold(images_a, w), letters) for w, p, letters in entries
                    )
            t_ab = t_a * t_b
            twist_size_b = abs(t_b.m) + abs(t_b.n)
            b_sides.append(
                (t_b, (0, 0, t_b.m, t_b.n), twist_size_b, t_ab, _psi_images(t_ab), levels)
            )
        g_a = KleinElt(a1, a2)
        factor = theta(g_a, w_l)
        for (pu_a, pv_a), a_entries in buckets[a1, a2]:
            a_ab = (pu_a, pv_a, t_a.m, t_a.n)
            for w_a, p_a, letters_a in a_entries:
                r = rhos.get(w_a)
                if r is None:
                    r = rhos[w_a] = rho(w_a)
                w_ls = r * factor
                ls_ab = _ab_image(w_ls, g_a * t_a)
                row_a = mul[p_a]
                size_a = letters_a + twist_size_a
                for t_b, b_zero, twist_size_b, t_ab, images_ab, levels in b_sides:
                    lhs = _ab_mul(_ab_mul(a_ab, b_zero), ls_ab)
                    b_entries = levels.get(-lhs[0]) if lhs[1:] == b_zero[1:] else None
                    if b_entries is None:
                        continue
                    p_ls = _fold(images_ab, w_ls)
                    tail = None
                    for w_b, p_b, q_b, letters_b in b_entries:
                        if mul[row_a[q_b]][p_ls] != p_b:
                            continue
                        size = size_a + twist_size_b + letters_b
                        if best is not None and size > best[0][0]:
                            continue
                        if tail is None:
                            tail = theta(t_ab, w_ls)
                        if w_a * theta(t_a, w_b) * tail == w_b:
                            a, b = BraidElt(w_a, t_a), BraidElt(w_b, t_b)
                            key = (size, str(a), str(b))
                            if best is None or key < best[0]:
                                best = key, (a, b)
    if best is None:
        return SearchResult(None, examined, bounds)
    return SearchResult(verify_pair(*best[1], cls, source="searched"), examined, bounds)
