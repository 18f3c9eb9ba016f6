"""The three workloads: seeded inputs, one operation, and its exact check.

Each workload turns a seed into a list of operation inputs, runs one
operation per input, and checks each output exactly after timing ends.
Inputs come in passes.  A pass draws from every stratum of the workload's
input space, in a seeded order, a seeded member each time, so every run
sees nearly the same mix of cheap and costly operations and differs from
other seeds in which members and in what order.

The expected answers are written here independently of the package where
that is possible: the decision table, the class images and the word
texts of the kernel families.  Where the check needs the package's own
arithmetic (a product of braids, a closed-form projection) it uses a route
other than the one the operation took.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

# Grid of the verdict-grid workload: types 1-4, parameters in [-3, 3],
# r1 in 0..3.  Classes with i = 1 in types 1-3 have neither a witness nor a
# certificate construction, so they are left out; 1519 classes remain.
VERDICT_SPAN = 3
# Grid of the witness-search workload, and the search bounds of each op.
# At coord 2 a search took 0.1 s at the median but 0.5-0.9 s in the
# slowest tenth, and the 295 classes 62 s: too few searches fit a run for
# a steady median.  At coord 1 the 100 classes take 18 s.
SEARCH_SPAN = 2
SEARCH_WORD_LEN = 6
SEARCH_COORD = 1
# Sizes (exponents and twists) of the long-words jobs are log-uniform in
# [LONG_MIN, LONG_MAX], split into LONG_STRATA equal strata of log size.
LONG_MIN = 16
LONG_MAX = 180
LONG_STRATA = 24


# ---------------------------------------------------------------------------
# facts transcribed from the paper, independent of the package


def class_images(kind, i, s1, s2, r1, r2):
    """Images of (1,0) and (0,1) for the representative of each type."""
    if kind == 1:
        return (i, 2 * s1 + 1), (0, 2 * s2)
    if kind == 2:
        return (i, 2 * s1 + 1), (i, 2 * s2 + 1)
    if kind == 3:
        return (0, 2 * s1), (i, 2 * s2 + 1)
    return (r1, 2 * s1), (r2, 2 * s2)


def has_property(kind, i, s1, s2, r1, r2):
    """The Borsuk-Ulam decision table, with s2 read modulo 2."""
    z = s2 % 2
    if kind == 1:
        return z == 0
    if kind == 2:
        return True
    if kind == 3:
        return s1 != 0
    return (
        r2 * s1 != 0
        or (z == 0 and r2 == 0 and s1 != 0)
        or (z == 0 and s1 == 0 and r1 != 0 and r2 % 2 == 0)
    )


def grid(span, r1_max):
    """Parameter tuples (kind, i, s1, s2, r1, r2) of the type 1-4 grid."""
    rng = range(-span, span + 1)
    out = [(kind, i, s1, s2, 0, 0) for kind in (1, 2, 3) for i in (0, 1) for s1 in rng for s2 in rng]
    out += [(4, 0, s1, s2, r1, r2) for r1 in range(r1_max + 1) for r2 in rng for s1 in rng for s2 in rng]
    return out


def verdict_stratum(params):
    """The inputs of the decision table's branches: type, s2 mod 2, |r2| and
    whether s1 is 0.  They also pick the certificate family, which sets
    most of the cost of an operation."""
    kind, i, s1, s2, r1, r2 = params
    return kind, s2 % 2, abs(r2), s1 == 0


def passes(strata, rng, min_items):
    """Seeded passes over the strata until at least min_items inputs.

    ``strata`` is a list of callables, each drawing one member from rng."""
    out = []
    while len(out) < min_items:
        order = list(range(len(strata)))
        rng.shuffle(order)
        out.extend(strata[s](rng) for s in order)
    return out


def class_strata(params_list, stratum, per_draw=None):
    """One draw per stratum, or with ``per_draw`` one per that many classes
    in the stratum (at least one), so a pass follows the space's mix."""
    groups = {}
    for params in params_list:
        groups.setdefault(stratum(params), []).append(params)
    out = []
    for members in groups.values():
        draws = max(1, round(len(members) / per_draw)) if per_draw else 1
        out += [lambda rng, members=members: rng.choice(members)] * draws
    return out


def _covered_grid():
    return [p for p in grid(VERDICT_SPAN, VERDICT_SPAN) if p[0] == 4 or p[1] == 0]


def _search_space():
    def fits(params):
        (m, n), _ = class_images(*params)
        return abs(m) <= SEARCH_COORD and abs(n) <= SEARCH_COORD

    return [p for p in grid(SEARCH_SPAN, SEARCH_SPAN) if fits(p)]


class Failure(Exception):
    """An operation's output did not match its expected value."""


def _expect(condition, message):
    if not condition:
        raise Failure(message)


def _check_witness(kb, params, a, b):
    img10, img01 = class_images(*params)
    lhs = kb.braid.bmul(kb.braid.bmul(a, b), kb.braid.lsigma(a))
    _expect(lhs == b, f"a.b.lsigma(a) != b for {params}: a={a} b={b}")
    _expect((a.twist.m, a.twist.n) == img10, f"p1(a) != {img10} for {params}")
    second = kb.braid.bmul(b, kb.braid.lsigma(b)).twist
    _expect((second.m, second.n) == img01, f"p1(b.lsigma(b)) != {img01} for {params}")


def _hom_class(kb, params):
    kind, i, s1, s2, r1, r2 = params
    if kind == 4:
        return kb.classifier.HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2)
    return kb.classifier.HomClass(kind, i=i, s1=s1, s2=s2)


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    trace_ops = 0  # length of the input prefix the traced run replays
    rounds = 3  # untraced rounds over the same inputs; each input keeps its median latency
    align = 1  # inputs in a pass; the first round runs whole passes

    @staticmethod
    def keep(out):
        """What the run retains of an output until it is checked."""
        return out


class VerdictGrid(Workload):
    """Decide a class, then back the verdict: build a witness when the
    class fails the property, check a certificate when it has it."""

    name = "verdict-grid"
    trace_ops = 12
    # The 28 strata hold 3 to 192 classes: a pass draws once per 15 classes
    # of a stratum (109 draws), and rounds of whole passes keep the mix of
    # certificate families the same from run to run.
    per_draw = 15
    align = len(class_strata(_covered_grid(), verdict_stratum, per_draw))

    def inputs(self, kb, seed, min_items):
        strata = class_strata(_covered_grid(), verdict_stratum, self.per_draw)
        chosen = passes(strata, random.Random(seed), min_items)
        return [(p, _hom_class(kb, p)) for p in chosen]

    def warm(self, kb):
        for params in ((4, 0, 0, 0, 2, 1), (4, 0, 1, 0, 0, 0)):
            self.op(kb, (params, _hom_class(kb, params)))

    def op(self, kb, item):
        _, cls = item
        verdict = kb.classifier.decide(cls)
        if verdict.bu:
            return verdict, kb.certificate.check_certificate(cls, window=6, mn=4)
        return verdict, kb.witness.build_witness(cls)

    def check(self, kb, item, out):
        params, cls = item
        verdict, report = out
        expected = has_property(*params)
        _expect(verdict.bu == expected, f"verdict {verdict.bu} != table {expected} for {params}")
        if expected:
            _expect(report.success, f"certificate failed for {params}: {report.witnesses_of_failure[:2]}")
            _expect(tuple(report.windows) == (6, 4), f"certificate windows {report.windows}")
        else:
            _expect(report.cls == cls, f"witness is for {report.cls}, not {cls}")
            _check_witness(kb, params, report.a, report.b)


class WitnessSearch(Workload):
    """Bounded exhaustive search for a witness pair."""

    name = "witness-search"
    trace_ops = 24
    # Each class is its own stratum, so a pass searches every class once,
    # in an order set by the seed; the order matters through the package's
    # caches.  A pass takes about 18 s on the seed code: one round of one
    # pass, with the same searches in every run.
    rounds = 1
    align = len(_search_space())

    def inputs(self, kb, seed, min_items):
        strata = class_strata(_search_space(), lambda params: params)
        chosen = passes(strata, random.Random(seed), min_items)
        return [(p, _hom_class(kb, p)) for p in chosen]

    def bounds(self, kb):
        return kb.witness.SearchBounds(word_len=SEARCH_WORD_LEN, coord=SEARCH_COORD)

    def warm(self, kb):
        # fills the short-word buckets for the bound; a cheap class
        params = (4, 0, 1, 1, 2, 1)
        self.op(kb, (params, _hom_class(kb, params)))

    def op(self, kb, item):
        return kb.witness.search_witness(item[1], self.bounds(kb))

    def check(self, kb, item, out):
        params, cls = item
        kind, i = params[0], params[1]
        if out.found:
            _expect(not has_property(*params), f"witness found for {params}, which has the property")
            _check_witness(kb, params, out.report.a, out.report.b)
        elif not has_property(*params) and (kind == 4 or i == 0):
            built = kb.witness.build_witness(cls)
            a, b = built.a, built.b
            inside = (
                max(a.word.letter_length(), b.word.letter_length()) <= SEARCH_WORD_LEN
                and max(abs(a.twist.m), abs(a.twist.n), abs(b.twist.m), abs(b.twist.n)) <= SEARCH_COORD
            )
            _expect(not inside, f"search missed the in-bounds witness of {params}")


# ---------------------------------------------------------------------------
# long words: word texts written out here, expected values from closed forms


def _power_text(terms, e):
    """Text of (t1 t2 ...)^e, written out letter block by letter block."""
    if e < 0:
        terms = [(sym, -x) for sym, x in reversed(terms)]
        e = -e
    return " ".join(f"{sym}^{x}" for sym, x in terms * e)


def _b_power_canonical(n):
    """Canonical text of B^n (n > 0): 'u v u v^-1' repeated, nothing cancels."""
    return " ".join(["u v u v^-1"] * n)


def _kernel_job(kind, word, expected):
    return kind, ("kernel-project", word), expected


def _braid_job(kind, expr, expected):
    return kind, ("braid-eval", expr), expected


def _long_job(kind, n, rng):
    """One job of the given kind at size n; ``expected`` names the closed
    form the check compares against."""
    sign = rng.choice((1, -1))
    if kind == "conj-power":
        return _kernel_job(kind, f"v B^{n} v^-1 B^{-n}", ("conj", n))
    if kind == "o-family":
        k, l = sign * n, rng.choice((1, -1)) * _jitter(n, rng)
        return _kernel_job(kind, f"v^{2 * k} u^{l} v^{-2 * k} u^{-l}", ("o", k, l))
    if kind == "j-family":
        k, l = sign * n, rng.choice((1, -1)) * _jitter(n, rng)
        return _kernel_job(kind, f"v^{2 * k} " + _power_text([("v", 1), ("u", l)], -2 * k), ("j", k, l))
    if kind == "t-family":
        k, r = sign * n, rng.choice((0, 1))
        er = 1 - 2 * r
        return _kernel_job(kind, f"u^{k} " + _power_text([("B", er), ("u", -er)], k * er), ("t", k, r))
    if kind == "i-family":
        k = sign * n
        return _kernel_job(kind, f"v^{k} " + _power_text([("v", 1), ("B", 1)], -k), ("i", k))
    if kind == "ablsiga-word":
        a, b = f"(u^{sign * n} v^-2 B; 2, 1)", f"(v^3 u^-1; 1, 2)"
        return _braid_job(kind, f"mul(mul({a}, {b}), lsigma({a}))", ("ablsiga", a, b))
    if kind == "ablsiga-twist":
        a, b = f"(u^2 v; {sign * n}, 1)", "(v^-1 u B; 1, 1)"
        return _braid_job(kind, f"mul(mul({a}, {b}), lsigma({a}))", ("ablsiga", a, b))
    if kind == "x-inv-x":
        x = f"(u v^-1 B; {sign * n}, 1)"
        return _braid_job(kind, f"{x} inv({x})", ("text", "(1 ; 0, 0)"))
    if kind == "twisted-product":
        # theta(n, 1) sends B to B^-1 and inv((B^n; n, 0)) = (B^-n; -n, 0)
        expected = f"(u^{n} v {_b_power_canonical(n)} ; {2 * n}, 1)"
        return _braid_job(kind, f"(u^{n} v; {n}, 1) inv((B^{n}; {n}, 0))", ("text", expected))
    raise ValueError(kind)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _jitter(n, rng):
    """A second size near n, so two-parameter families are not square."""
    return max(LONG_MIN, min(LONG_MAX, round(n * rng.uniform(0.8, 1.25))))


LONG_KINDS = (
    "conj-power", "o-family", "j-family", "t-family", "i-family",
    "ablsiga-word", "ablsiga-twist", "x-inv-x", "twisted-product",
)


def long_size(stratum, rng):
    """Log-uniform size in the stratum-th of LONG_STRATA equal log bands."""
    u = (stratum + rng.random()) / LONG_STRATA
    return round(LONG_MIN * (LONG_MAX / LONG_MIN) ** u)


class LongWords(Workload):
    """Jobs issued through the command-line entry point, in process, on a
    few large words and twists."""

    name = "long-words"
    trace_ops = 90
    # A few jobs of each pass take most of its time, so a round is made of
    # whole passes (one pass of 216 jobs, about 20 s on the seed code):
    # that keeps the mix the same from run to run.
    rounds = 1
    align = len(LONG_KINDS) * LONG_STRATA

    def inputs(self, kb, seed, min_items):
        strata = [
            (lambda rng, kind=kind, s=s: _long_job(kind, long_size(s, rng), rng))
            for kind in LONG_KINDS
            for s in range(LONG_STRATA)
        ]
        return passes(strata, random.Random(seed), min_items)

    def warm(self, kb):
        rng = random.Random(0)
        for kind in LONG_KINDS:
            self.op(kb, _long_job(kind, LONG_MIN, rng))

    def op(self, kb, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = kb.cli.main(list(item[1]))
        return code, buf.getvalue()

    @staticmethod
    def keep(out):
        """A digest of the printed text, so that hundreds of long outputs
        retained until the check do not inflate the process's memory."""
        code, text = out
        return code, _digest(text)

    def __init__(self):
        self._wanted = {}  # expected -> digest of the expected output

    def check(self, kb, item, out):
        kind, argv, expected = item
        code, digest = out
        _expect(code == 0, f"{kind}: exit code {code}")
        if expected not in self._wanted:
            self._wanted[expected] = _digest(self.expected_text(kb, expected) + "\n")
        _expect(digest == self._wanted[expected], f"{kind}: wrong output for {argv[1][:80]}")

    @staticmethod
    def expected_text(kb, expected):
        k = kb.kernel
        tag, *args = expected
        if tag == "conj":
            n = args[0]
            e00 = k.KernelVector.unit(0, 0)
            return str(k.c_ab(1, 0, n * e00) - n * e00)
        if tag == "ablsiga":
            a, b = (kb.braid.parse_braid(x) for x in args)
            return str(kb.braid.formula_ablsiga(a, b))
        if tag == "text":
            return args[0]
        closed_form = {"o": k.tilde_o, "j": k.tilde_j, "t": k.tilde_t, "i": k.tilde_i}[tag]
        return str(closed_form(*args))


WORKLOADS = {w.name: w for w in (VerdictGrid(), WitnessSearch(), LongWords())}
