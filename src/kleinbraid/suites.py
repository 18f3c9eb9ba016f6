"""Named invariant suites, shared by the selftest command and the tests.

Each suite returns a list of SuiteCheck records; a suite passes when every
record is ok.  Suites take no arguments: the structural and tilde suites
draw their random samples from a fixed random.Random(0), so every run
checks the same cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import certificate as cert
from .braid import (
    SIGMA_SQ,
    BraidElt,
    formula_ablsiga,
    formula_blsiga,
    lsigma,
    rho,
    theta,
)
from .classifier import HomClass, central_shift_equiv, decide
from .kernel import (
    RHO,
    KernelVector,
    c_agreement,
    c_operator,
    expand,
    project,
    q_identity_check,
    rho_ab,
    theta_ab,
    theta_operator,
    tilde_i,
    tilde_j,
    tilde_o,
    tilde_q,
    tilde_t,
    word_i,
    word_j,
    word_o,
    word_q,
    word_t,
)
from .kleinpi import KleinElt, delta, eps
from .words import BIG_B, ONE, U, V, Word
from .witness import SearchBounds, build_witness, search_witness


@dataclass
class SuiteCheck:
    name: str
    ok: bool
    detail: str = ""


def _check(out: list[SuiteCheck], name: str, failures: list) -> None:
    out.append(
        SuiteCheck(name, not failures, "" if not failures else f"first failure: {failures[0]}")
    )


def _random_word(rng: random.Random, max_letters: int = 6) -> Word:
    letters = [
        (rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randint(0, max_letters))
    ]
    return Word(tuple(letters))


def _random_braid(rng: random.Random) -> BraidElt:
    return BraidElt(
        _random_word(rng), KleinElt(rng.randint(-3, 3), rng.randint(-3, 3))
    )


def _random_kernel_word(rng: random.Random, span: int = 4, factors: int = 4) -> Word:
    w = ONE
    for _ in range(rng.randint(1, factors)):
        w = w * expand(rng.randint(-span, span), rng.randint(-span, span)) ** rng.choice((1, -1))
    return w


def _random_uvx_braid(rng: random.Random) -> BraidElt:
    # (u^p v^q x; m, n) with x in ker gmap: the normal form decompose() splits
    word = (
        U ** rng.randint(-3, 3)
        * V ** rng.randint(-3, 3)
        * _random_kernel_word(rng, span=2, factors=2)
    )
    return BraidElt(word, KleinElt(rng.randint(-3, 3), rng.randint(-3, 3)))


# ---------------------------------------------------------------------------


def suite_structural() -> list[SuiteCheck]:
    """Action property, lsigma algebra, centre, and formula-vs-engine."""
    rng = random.Random(0)
    out: list[SuiteCheck] = []

    probes = [U, V, U * V.inv() * U * V, BIG_B * U.inv()]
    fails = []
    for m in range(-4, 5):
        for n in range(-4, 5):
            t = KleinElt(m, n)
            if theta(t, BIG_B) != BIG_B ** eps(n):
                fails.append(("B-image", m, n))
            for m2 in range(-4, 5):
                for n2 in range(-4, 5):
                    t2 = KleinElt(m2, n2)
                    w = probes[(m + n + m2 + n2) % len(probes)]
                    if theta(t * t2, w) != theta(t, theta(t2, w)):
                        fails.append(("action", m, n, m2, n2))
    _check(out, "theta action + B-image on |m|,|n| <= 4", fails)

    fails = []
    for _ in range(200):
        a, b = _random_braid(rng), _random_braid(rng)
        if lsigma(a * b) != lsigma(a) * lsigma(b):
            fails.append(("endomorphism", a, b))
        if lsigma(lsigma(a)) != SIGMA_SQ * a * SIGMA_SQ.inv():
            fails.append(("square", a))
    _check(out, "lsigma endomorphism and lsigma^2 = conj by (B;0,0), 200 braids", fails)

    centre = BraidElt(ONE, KleinElt(0, 2))
    gens = [BraidElt(U), BraidElt(V), BraidElt(ONE, KleinElt(1, 0)), BraidElt(ONE, KleinElt(0, 1))]
    fails = [g for g in gens if centre * g != g * centre]
    _check(out, "(1;0,2) commutes with the generators", fails)

    fails = []
    for _ in range(200):
        a, b = _random_uvx_braid(rng), _random_uvx_braid(rng)
        if formula_blsiga(a, b) != b * lsigma(a):
            fails.append(("blsiga", a, b))
        if formula_ablsiga(a, b) != a * b * lsigma(a):
            fails.append(("ablsiga", a, b))
    _check(out, "closed formulas equal engine products, 200 pairs", fails)
    return out


def suite_tilde() -> list[SuiteCheck]:
    """Projection roundtrip, family projections (boxes) against the words, operators."""
    rng = random.Random(0)
    out: list[SuiteCheck] = []

    fails = []
    for _ in range(200):
        picks = [
            (rng.randint(-5, 5), rng.randint(-5, 5), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 5))
        ]
        w = ONE
        vec = KernelVector()
        for k, l, s in picks:
            w = w * expand(k, l) ** s
            vec = vec + KernelVector({(k, l): s})
        if project(w) != vec:
            fails.append(picks)
    _check(out, "project/expand roundtrip + additivity, 200 products", fails)

    fails = []
    span = range(-4, 5)
    pairs = [(k, l) for k in span for l in span]
    for name, word, tilde, grid in (
        ("T", word_t, tilde_t, [(k, r) for k in span for r in (0, 1)]),
        ("I", word_i, tilde_i, [(k,) for k in span]),
        ("O", word_o, tilde_o, pairs),
        ("J", word_j, tilde_j, pairs),
        ("Q", word_q, tilde_q, pairs),
    ):
        fails += [(name, *args) for args in grid if project(word(*args)) != tilde(*args)]
    _check(out, "project(word family) equals progression boxes, params in [-4,4]", fails)

    fails = []
    for _ in range(200):
        x = _random_kernel_word(rng)
        t = KleinElt(rng.randint(-3, 3), rng.randint(-3, 3))
        if project(theta(t, x)) != theta_ab(t, project(x)):
            fails.append(("theta_ab", x, t))
        if project(rho(x)) != rho_ab(project(x)):
            fails.append(("rho_ab", x))
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        if not c_agreement(p, q, x):
            fails.append(("c_ab", x, p, q))
        y = _random_kernel_word(rng, span=3, factors=2)
        if project(x * y * x.inv() * y.inv()):
            fails.append(("commutator", x, y))
    _check(out, "operator compatibility and commutator vanishing, 200 words", fails)
    return out


def _cpq(p: int, q: int, x: Word) -> Word:
    return (V ** p * U ** q).conj(x)


def suite_q_identity() -> list[SuiteCheck]:
    """Exact (non-abelianised) word identities."""
    out: list[SuiteCheck] = []

    fails = [
        (k, l)
        for k in range(-4, 5)
        if k != 0
        for l in range(-4, 5)
        if not q_identity_check(k, l)
    ]
    _check(out, "Q through O and basis words, k,l in [-4,4]", fails)

    # each loop below builds the forms of a class once per parity of n
    # (cert.master_forms) and evaluates them at the class's points

    # neither side reads r2: it enters only through b1, and a1 - b1 + εi·b1
    # is a1 at i = 0 and a1 - 2·b1 at i = 1, where b1 has no r2 term
    fails = []
    for i in (0, 1):
        for j in (0, 1):
            for r1 in range(-3, 4):
                for s2 in range(-3, 4):
                    forms = [cert.master_forms(r1, 0, 0, s2, i, j, parity) for parity in (0, 1)]
                    for m in range(-3, 4):
                        for n in range(-3, 4):
                            a1, a2, b1, b2, g = forms[n % 2].derived_at(m, n)
                            lhs = word_o(
                                s2 - n,
                                2 * delta(i) * m - 2 * delta(i + 1) * delta(n + 1) * r1,
                            ) ** (-delta(j + 1)) * word_q(-2 * delta(i) * m, s2 - n) ** delta(j)
                            rhs = (
                                U ** (a1 - b1 + eps(i) * b1)
                                * V ** b2
                                * U ** (-a1 * eps(n + i))
                                * V ** (-b2)
                            )
                            if lhs != rhs:
                                fails.append((i, j, r1, m, n, s2))
    _check(out, "O/Q merge identity", fails)

    fails = []
    for i in (0, 1):
        for j in (0, 1):
            for r1 in range(-3, 4):
                for s2 in range(-3, 4):
                    forms = [cert.master_forms(r1, 0, 0, s2, i, j, parity) for parity in (0, 1)]
                    for n in range(-3, 4):
                        _, _, _, b2, _ = forms[n % 2].derived_at(0, n)
                        m1 = delta(i + 1) * delta(j + 1) * r1
                        lhs = word_j(delta(i + 1) * (n - s2), -2 * m1) * _cpq(
                            -1, 0, word_i(-delta(i) * b2)
                        )
                        rhs = V ** (-b2) * (BIG_B ** delta(i) * V * U ** (-2 * m1)) ** b2
                        if lhs != rhs:
                            fails.append((i, j, r1, n, s2))
    _check(out, "J/I merge identity", fails)

    fails = []
    for i in (0, 1):
        for j in (0, 1):
            for r1 in range(-3, 4):
                forms = [cert.master_forms(r1, 0, 0, 0, i, j, parity) for parity in (0, 1)]
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        a1, _, _, _, _ = forms[n % 2].derived_at(m, n)
                        e = a1 * eps(n + i)
                        lhs = word_t(e, delta(n + i))
                        rhs = U ** e * (BIG_B ** eps(n + i) * U ** eps(n + i + 1)) ** a1
                        if lhs != rhs:
                            fails.append((i, j, r1, m, n))
    _check(out, "T identity", fails)

    fails = []
    for i in (0, 1):
        for j in (0, 1):
            for s1 in range(-3, 4):
                for r1 in range(-3, 4):
                    forms = [cert.master_forms(r1, 0, s1, 0, i, j, parity) for parity in (0, 1)]
                    for m in range(-3, 4):
                        for n in range(-3, 4):
                            a1, a2, _, _, g = forms[n % 2].derived_at(m, n)
                            d = delta(n + i + 1)
                            lhs = word_o(a2 // 2, d) * _cpq(0, d, word_j(a2 // 2, -2 * g + 1))
                            rhs = V ** a2 * (
                                BIG_B ** eps(n + i)
                                * (BIG_B ** delta(n + i) * V * U ** (-2 * g)) ** 2
                            ) ** (-a2 // 2)
                            if lhs != rhs:
                                fails.append((i, j, s1, r1, m, n))
    _check(out, "O/J collection identity", fails)
    return out


def _grid_classes(span: int) -> list[HomClass]:
    out = []
    for kind in (1, 2, 3):
        for i in (0, 1):
            for s1 in range(-span, span + 1):
                for s2 in range(-span, span + 1):
                    out.append(HomClass(kind, i=i, s1=s1, s2=s2))
    for r1 in range(0, span + 1):
        for r2 in range(-span, span + 1):
            for s1 in range(-span, span + 1):
                for s2 in range(-span, span + 1):
                    out.append(HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2))
    return out


def suite_witness_grid() -> list[SuiteCheck]:
    """Constructed witnesses for every failing class, plus shifts."""
    out: list[SuiteCheck] = []

    fails = []
    built = 0
    for cls in _grid_classes(3):
        if decide(cls).bu:
            continue
        try:
            report = build_witness(cls)
            built += 1
            if report.cls != cls:
                fails.append(cls)
        except Exception as exc:  # any failure to build or verify is a failure
            fails.append((cls, repr(exc)))
    _check(out, f"build_witness verified on {built} failing classes, params in [-3,3]", fails)

    fails = []
    for base in [
        HomClass(1, i=0, s1=1, s2=1),
        HomClass(3, i=0, s1=0, s2=0),
        HomClass(3, i=0, s1=0, s2=1),
        HomClass(4, r1=0, r2=2, s1=0, s2=0),
        HomClass(4, r1=2, r2=1, s1=0, s2=0),
        HomClass(4, r1=1, r2=0, s1=1, s2=1),
    ]:
        for k in range(-2, 3):
            cls = replace(base, s2=base.s2 + 2 * k)
            report = build_witness(cls)
            if k != 0 and report.source != "shifted":
                fails.append((cls, k, report.source))
    _check(out, "mod-4 shifted witnesses re-verify, k in [-2,2]", fails)
    return out


def suite_certificate_grid() -> list[SuiteCheck]:
    """Certificates for every class with the property, plus the
    functional identities used by the per-family contradictions."""
    out: list[SuiteCheck] = []

    fails = []
    checked = 0
    for cls in _grid_classes(2):
        if not decide(cls).bu:
            continue
        report = cert.check_certificate(cls, window=6, mn=4)
        checked += 1
        if not report.success:
            fails.append((cls, report.witnesses_of_failure[:2]))
    _check(out, f"check_certificate succeeds on {checked} classes, params in [-2,2]", fails)

    # a pulled-back table holds xi∘op on every (k, l), so xi.pullback(op) ==
    # xi is the invariance xi∘op = xi for all of them
    fails = []
    span = range(-3, 4)
    for w in (0, 1):
        xi = cert.xi_parity(w)
        ops = [("rho", RHO)]
        ops += [(("theta", m, n), theta_operator(m, n)) for m in span for n in span]
        ops += [(("c", p, q), c_operator(p, q)) for p in span for q in span if w or p % 2 == 0]
        fails += [(w, name) for name, op in ops if xi.pullback(op) != xi]
    _check(out, "xi-parity equals its pullbacks through rho, theta and even shifts", fails)

    fails = []
    for w in (0, 1):
        xi = cert.xi_parity(w)
        for k in range(-3, 4):
            for l in range(-3, 4):
                if k and l and xi(tilde_o(k, l)) != (abs(k) * abs(l) * delta(w + 1)) % 2:
                    fails.append(("O", w, k, l))
        for m in range(-3, 4):
            for z in (0, 1):
                for n in range(-3, 4):
                    if xi(tilde_t(2 * m, delta(n + 1))) != 0:
                        fails.append(("T", w, m, n))
                    if xi(tilde_q(-2 * m, z * w - n)) != 0:
                        fails.append(("Q", w, m, n, z))
        for s in range(-3, 4):
            for m in range(-3, 4):
                if xi(tilde_j(-2 * s - 1, 1 - 2 * m)) != 1:
                    fails.append(("J", w, s, m))
    _check(out, "xi-parity values on the O/T/Q/J families", fails)

    fails = []
    for s in (-2, -1, 1, 2):
        mod = 4 * abs(s)
        for n in range(-2, 3):
            xi3 = cert.xi_row(s, n)
            for k in range(-mod, 2 * mod):
                for l in range(-4, 5):
                    if xi3(KernelVector.unit(k, l)) != int((k - n) % mod == 0):
                        fails.append((s, n, k, l))
    _check(out, "xi-row is 1 exactly where k = n mod 4|s|, over three periods", fails)

    fails = []
    xi_count = {n: cert.xi_count(n) for n in range(-4, 5)}
    for r1 in (0, 1, 2):
        for r2 in range(-2, 3):
            for s in range(-2, 3):
                for z in (0, 1):
                    for m in range(-4, 5):
                        for n in range(-4, 5):
                            atoms = cert.even_even_atoms(r1, r2, s, z, m, n)
                            if xi_count[n].on_atoms(atoms) != -2 * r2 * s:
                                fails.append((r1, r2, s, z, m, n))
    _check(out, "xi-count collapses the even-even constant to -2*r2*s", fails)
    return out


def suite_specialization() -> list[SuiteCheck]:
    """master_forms equals the three per-family transcriptions: operators
    by exact term-table equality, which is equality on every e(k, l);
    constants as the vectors their atoms materialise.  The forms of a
    class are built once per parity of n."""
    out: list[SuiteCheck] = []

    def agrees(fam, eq):
        return fam.ax == eq.ax and fam.ay == eq.ay and fam.constant == eq.constant

    fails = []
    for s in range(-2, 3):
        for z in (0, 1):
            for w in (0, 1):
                forms = [cert.master_forms(0, 0, s, z * w, 1, w, parity) for parity in (0, 1)]
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        args = (s, z, w, m, n)
                        eq = forms[n % 2].equation_at(m, n)
                        if not agrees(cert.equation_first_odd(*args), eq):
                            fails.append(args)
    _check(out, "first-odd family equals master_forms(i=1, j=w)", fails)

    fails = []
    for s in range(-2, 3):
        for z in (0, 1):
            forms = [cert.master_forms(0, 0, s, z, 0, 1, parity) for parity in (0, 1)]
            for m in range(-2, 3):
                for n in range(-2, 3):
                    args = (s, z, m, n)
                    if not agrees(cert.equation_even_odd(*args), forms[n % 2].equation_at(m, n)):
                        fails.append(args)
    _check(out, "even-odd family equals master_forms(i=0, j=1)", fails)

    fails = []
    for r1 in (0, 1, 2):
        for r2 in (-2, -1, 1, 2):
            for s in (-2, 0, 2):
                for z in (0, 1):
                    forms = [cert.master_forms(r1, r2, s, z, 0, 0, parity) for parity in (0, 1)]
                    for m in (-2, 0, 2):
                        for n in (-2, -1, 0, 1, 2):
                            args = (r1, r2, s, z, m, n)
                            eq = forms[n % 2].equation_at(m, n)
                            if not agrees(cert.equation_even_even(*args), eq):
                                fails.append(args)
    _check(out, "even-even family (displayed mu/nu) equals master_forms(i=j=0)", fails)
    return out


def suite_classifier_cross() -> list[SuiteCheck]:
    """Verdict table reproduction and search consistency on the full grid."""
    out: list[SuiteCheck] = []
    bounds = SearchBounds(4, 2)
    classes = _grid_classes(3)

    fails = []
    for cls in classes:
        v = decide(cls)
        if cls.kind == 1:
            expect = cls.s2 % 2 == 0
        elif cls.kind == 2:
            expect = True
        elif cls.kind == 3:
            expect = cls.s1 != 0
        else:
            z = cls.s2 % 2
            expect = (
                cls.r2 * cls.s1 != 0
                or (z == 0 and cls.r2 == 0 and cls.s1 != 0)
                or (z == 0 and cls.s1 == 0 and cls.r1 != 0 and cls.r2 % 2 == 0)
            )
        if v.bu != expect:
            fails.append(cls)
    _check(out, f"decision table reproduced on {len(classes)} classes", fails)

    fails = []
    searched = 0
    for cls in classes:
        res = search_witness(cls, bounds)
        searched += 1
        bu = decide(cls).bu
        if bu and res.found:
            fails.append(("witness for a class with the property", cls, res.report))
        if not bu:
            pair = build_witness(cls)
            twists = (pair.a.twist, pair.b.twist)
            inside = (
                max(pair.a.word.letter_length(), pair.b.word.letter_length()) <= bounds.word_len
                and max(max(abs(t.m), abs(t.n)) for t in twists) <= bounds.coord
            )
            if inside and not res.found:
                fails.append(("missed in-bounds witness", cls))
    _check(out, f"search agrees with the decision on {searched} classes", fails)

    fails = []
    for cls in classes:
        shifted = replace(cls, s2=cls.s2 + 2)
        if not central_shift_equiv(cls, shifted):
            fails.append((cls, "+4 raw shift not equivalent"))
        if decide(cls).bu != decide(shifted).bu:
            fails.append((cls, "verdict not shift invariant"))
        if cls.kind == 4 and cls.r1 == 0:
            flipped = HomClass(4, r1=0, r2=-cls.r2, s1=cls.s1, s2=cls.s2)
            if decide(cls).bu != decide(flipped).bu:
                fails.append((cls, "verdict not r2-sign invariant"))
    _check(out, "verdict invariant under mod-4 shifts and r2 sign at r1=0", fails)
    return out


SUITES = {
    "structural": suite_structural,
    "tilde": suite_tilde,
    "q-identity": suite_q_identity,
    "witness-grid": suite_witness_grid,
    "certificate-grid": suite_certificate_grid,
    "specialization": suite_specialization,
    "classifier-cross": suite_classifier_cross,
}
