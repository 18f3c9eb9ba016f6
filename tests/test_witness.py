"""Witness construction, verification and the bounded search.

reference_search below is the search loop as it was before the scan was
grouped by exponent sums: one abelian filter per candidate pair and the
braid engine on every pair that passes.  The grouped scan, with its
levels, its two A5 stages and its order of size, must return the same
pair and the same examined count.
"""

from collections import Counter
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid import witness
from kleinbraid.braid import (
    B_IDENTITY,
    H_IMAGES,
    BraidElt,
    apply_images,
    bmul,
    forced_word_exponents,
    gmap,
    lsigma,
    p1,
    rho,
    theta,
)
from kleinbraid.classifier import HomClass, decide
from kleinbraid.cli import main
from kleinbraid.kleinpi import KleinElt
from kleinbraid.suites import _grid_classes
from kleinbraid.witness import (
    _PSI,
    _PSI2,
    _TWIST_CACHE_SIZE,
    _WORD_CACHE_SIZE,
    MAX_COORD,
    MAX_PAIRS,
    MAX_WITNESS_PARAM,
    MAX_WORD_LEN,
    SearchBounds,
    SearchResult,
    WitnessVerificationError,
    _a5,
    _ab_mul,
    _bucket_sizes,
    _fold,
    _psi,
    _psi_images,
    _candidate_b_twists,
    _result,
    _short_words,
    _words_by_gmap,
    build_witness,
    search_witness,
    verify_pair,
)
from kleinbraid.words import MAX_RUNS, ONE, U, V, Word, parse_word

from common import PROFILE, twists, words


# ---------------------------------------------------------------------------
# reference search


def _ab_image(word, twist):
    """(word; twist) in Z² ⋊ (Z ⋊ Z), with the word part abelianised."""
    return (*word.exponent_sums(), twist.m, twist.n)


def reference_search(cls, bounds):
    img10, _ = cls.images()
    examined = 0
    found = []
    if abs(img10.m) <= bounds.coord and abs(img10.n) <= bounds.coord:
        t_a = img10
        a2 = -2 * t_a.n
        buckets = {}
        for w in _short_words(bounds.word_len):
            g = gmap(w)
            buckets.setdefault((g.m, g.n), []).append(w)
        img01 = cls.images()[1]
        lsig_cache = {}
        for (b1, b2), b_words in buckets.items():
            for t_b in _candidate_b_twists(b1, b2, img01, bounds.coord):
                a1, _ = forced_word_exponents(BraidElt(ONE, t_a), BraidElt(ONE, t_b))
                for w_a in buckets.get((a1, a2), ()):
                    cached = lsig_cache.get(w_a)
                    if cached is None:
                        ls = lsigma(BraidElt(w_a, t_a))
                        cached = (ls, _ab_image(ls.word, ls.twist))
                        lsig_cache[w_a] = cached
                    ls, ls_ab = cached
                    a = BraidElt(w_a, t_a)
                    a_ab = _ab_image(w_a, t_a)
                    for w_b in b_words:
                        examined += 1
                        b_ab = _ab_image(w_b, t_b)
                        lhs_ab = _ab_mul(_ab_mul(a_ab, b_ab), ls_ab)
                        if lhs_ab != b_ab:
                            continue
                        b = BraidElt(w_b, t_b)
                        if a * b * ls == b:
                            key = (
                                w_a.letter_length()
                                + w_b.letter_length()
                                + abs(t_a.m)
                                + abs(t_a.n)
                                + abs(t_b.m)
                                + abs(t_b.n),
                                str(a),
                                str(b),
                            )
                            found.append((key, a, b))
    if not found:
        return SearchResult(None, examined)
    _, a, b = min(found, key=lambda item: item[0])
    return SearchResult(verify_pair(a, b, cls, source="searched"), examined)


def _outcome(result):
    pair = (result.report.a, result.report.b) if result.found else None
    return result.found, pair, result.examined


def test_verify_pair_even_family():
    a = B_IDENTITY
    b = BraidElt(ONE, KleinElt(1, 0))
    report = verify_pair(a, b, HomClass(4, r1=0, r2=2, s1=0, s2=0))
    assert (report.a, report.b, report.source) == (a, b, "constructed")


def test_verify_pair_mixed_family():
    # b = (v; 0, z) realizes the second image (0, 2z+1)
    verify_pair(B_IDENTITY, BraidElt(V, KleinElt(0, 1)), HomClass(3, i=0, s1=0, s2=1))
    verify_pair(B_IDENTITY, BraidElt(V, KleinElt(0, 0)), HomClass(3, i=0, s1=0, s2=0))


def test_verify_pair_failure_reports_conditions():
    cls = HomClass(4, r1=1, r2=0, s1=0, s2=1)  # image of (1,0) is (1,0)
    with pytest.raises(WitnessVerificationError) as err:
        verify_pair(BraidElt(U), B_IDENTITY, cls)
    assert err.value.failures
    assert any("(i)" in f or "(ii)" in f for f in err.value.failures)


# each pair breaks exactly one condition for a type-4 class; the class's
# own witness is (1, (1; 1,0)) at r1 = 0, r2 = 2
@pytest.mark.parametrize(
    "condition, a, b, r1",
    [
        ("(i)", BraidElt(U ** 2), BraidElt(ONE, KleinElt(1, 0)), 0),
        ("(ii)", B_IDENTITY, BraidElt(ONE, KleinElt(1, 0)), 1),
        ("(iii)", B_IDENTITY, B_IDENTITY, 0),
    ],
)
def test_verify_pair_names_the_one_failing_condition(condition, a, b, r1):
    with pytest.raises(WitnessVerificationError) as err:
        verify_pair(a, b, HomClass(4, r1=r1, r2=2, s1=0, s2=0))
    assert [f.split()[0] for f in err.value.failures] == [condition]


def test_short_words_are_the_letter_by_letter_words(monkeypatch):
    # the words the frontier grew one letter at a time, each reduced from
    # its letters: the same words in the same order, built without reducing
    expected, frontier = [ONE], [()]
    for _ in range(6):
        frontier = [
            letters + ((g, e),)
            for letters in frontier
            for g in ("u", "v")
            for e in (1, -1)
            if letters[-1:] != ((g, -e),)
        ]
        expected += [Word(letters) for letters in frontier]

    def no_reduce(runs):
        raise AssertionError("a short word was reduced")

    monkeypatch.setattr("kleinbraid.words._reduce", no_reduce)
    out = _short_words(6)
    assert len(out) == 1457
    assert [w.runs for w in out] == [w.runs for w in expected]


def test_second_image_shortcut():
    # _candidate_b_twists solves condition (iii) through this identity
    for b in [
        BraidElt(V, KleinElt(0, 1)),
        BraidElt(U ** -1, KleinElt(2, -1)),
        BraidElt(parse_word("u v^-2"), KleinElt(-1, 2)),
    ]:
        assert b.twist * gmap(b.word) * b.twist == p1(bmul(b, lsigma(b)))


def test_build_witness_examples():
    report = build_witness(HomClass(1, i=0, s1=1, s2=1))
    assert report.source == "constructed"
    report = build_witness(HomClass(4, r1=3, r2=1, s1=0, s2=0))
    assert report.a == BraidElt(U ** -2, KleinElt(1, 0)) ** 3
    report = build_witness(HomClass(4, r1=2, r2=0, s1=1, s2=1))
    assert report.cls == HomClass(4, r1=2, r2=0, s1=1, s2=1)


def test_build_witness_rejects_property_classes():
    with pytest.raises(ValueError):
        build_witness(HomClass(2, i=0, s1=0, s2=0))
    with pytest.raises(ValueError):
        build_witness(HomClass(4, r1=1, r2=2, s1=0, s2=0))


def test_build_witness_transports_i1_classes():
    for cls in (HomClass(1, i=1, s1=0, s2=1), HomClass(3, i=1, s1=0, s2=0)):
        partner = build_witness(replace(cls, i=0))
        report = build_witness(cls)
        assert report.a == apply_images(H_IMAGES, partner.a)
        assert report.b == apply_images(H_IMAGES, partner.b)
        assert report.source == "constructed"


def test_build_witness_grid():
    count = 0
    for s1 in range(-3, 4):
        for s2 in range(-3, 4):
            for kind in (1, 3):
                cls = HomClass(kind, i=0, s1=s1, s2=s2)
                if not decide(cls).bu:
                    build_witness(cls)
                    count += 1
    for r1 in range(0, 4):
        for r2 in range(-3, 4):
            for s1 in range(-3, 4):
                for s2 in range(-3, 4):
                    cls = HomClass(4, r1=r1, r2=r2, s1=s1, s2=s2)
                    if not decide(cls).bu:
                        build_witness(cls)
                        count += 1
    assert count == 300


def test_shifted_witnesses():
    for k in range(-2, 3):
        cls = HomClass(3, i=0, s1=0, s2=1 + 2 * k)
        report = build_witness(cls)
        assert report.source == ("constructed" if k == 0 else "shifted")


def test_search_finds_constructed_pairs():
    res = search_witness(HomClass(4, r1=0, r2=2, s1=0, s2=0))
    assert res.found and res.report.source == "searched"
    res = search_witness(HomClass(3, i=0, s1=0, s2=1))
    assert res.found
    assert (res.report.a, res.report.b) == (B_IDENTITY, BraidElt(V, KleinElt(0, 1)))


def test_search_not_found_for_property_classes():
    res = search_witness(HomClass(2, i=0, s1=0, s2=0), SearchBounds(4, 2))
    assert not res.found
    assert res.examined > 0
    res = search_witness(HomClass(1, i=0, s1=0, s2=0), SearchBounds(4, 2))
    assert not res.found


def test_search_is_deterministic():
    cls = HomClass(4, r1=1, r2=1, s1=0, s2=0)
    first = search_witness(cls)
    second = search_witness(cls)
    assert first.found
    assert (first.report.a, first.report.b) == (second.report.a, second.report.b)


def test_searches_share_one_result_per_value():
    found, other, not_found = (
        HomClass(4, r1=1, r2=1, s1=0, s2=0),
        HomClass(3, i=1, s1=0, s2=0),
        HomClass(2, i=0, s1=0, s2=0),
    )
    results = [search_witness(cls) for cls in (found, other, not_found)]
    assert [result.found for result in results] == [True, True, False]
    for cls, result in zip((found, other, not_found), results):
        assert search_witness(cls) is result
        assert search_witness(replace(cls)) is result  # an equal class, not the same
    assert len({id(result) for result in results}) == 3


@pytest.mark.parametrize(
    "args, code, out",
    [
        (
            ["--type", "4", "--r1", "1", "--r2", "1", "--s1", "0", "--s2", "0"],
            0,
            "class: type 4 (r1=1, r2=1, s1=0, s2=0)   source: searched\n"
            "a = (u^-2 ; 1, 0)\n"
            "b = (v u^-1 v^-1 ; 0, 0)\n"
            "checks: relation ok, first image ok, second image ok\n",
        ),
        (
            ["--type", "1", "--i", "0", "--s1", "0", "--s2", "1", "--bounds", "2", "--coords", "1"],
            1,
            "not found: examined 2 candidate pairs at bounds (word length <= 2, |coords| <= 1)\n",
        ),
    ],
)
def test_cli_search_prints_a_shared_result_as_before(capsys, args, code, out):
    # the frozen texts are those the search printed before results were
    # shared; a second search prints the shared result alike
    for _ in range(2):
        assert main(["witness", *args, "--search"]) == code
        assert capsys.readouterr() == (out, "")


def test_shared_results_are_bounded():
    assert _result.cache_info().maxsize == 1024
    for examined in range(1100):
        assert _result(None, examined) is _result(None, examined)
    assert _result.cache_info().currsize == 1024


def test_search_covers_uncovered_families():
    # pairs found by the search oracle for i=1 classes, frozen as fixtures
    res = search_witness(HomClass(1, i=1, s1=0, s2=1))
    assert res.found
    assert (res.report.a, res.report.b) == (
        BraidElt(parse_word("u v^-2 u^-1"), KleinElt(1, 1)),
        BraidElt(ONE, KleinElt(1, 1)),
    )
    res = search_witness(HomClass(3, i=1, s1=0, s2=0))
    assert res.found
    assert (res.report.a, res.report.b) == (
        B_IDENTITY,
        BraidElt(parse_word("u v"), KleinElt(0, 0)),
    )


def test_out_of_bounds_class_is_not_searched():
    res = search_witness(HomClass(1, i=0, s1=3, s2=1), SearchBounds(4, 2))
    assert not res.found and res.examined == 0


def test_search_matches_reference_on_grid():
    bounds = SearchBounds(4, 2)
    found = 0
    for cls in _grid_classes(2):  # parameters in [-2, 2], r1 in 0..2
        result = search_witness(cls, bounds)
        assert _outcome(result) == _outcome(reference_search(cls, bounds)), cls
        found += result.found
    assert found > 0


@pytest.mark.parametrize(
    "cls",
    [
        HomClass(3, i=1, s1=0, s2=1),
        HomClass(4, r1=1, r2=1, s1=0, s2=0),
        HomClass(1, i=1, s1=0, s2=1),
        HomClass(2, i=0, s1=0, s2=0),
    ],
    ids=HomClass.describe,
)
def test_search_matches_reference_at_longer_words(cls):
    bounds = SearchBounds(6, 1)
    assert _outcome(search_witness(cls, bounds)) == _outcome(reference_search(cls, bounds))


@pytest.mark.parametrize(
    "cls, bounds",
    [
        (HomClass(1, i=0, s1=-1, s2=3), SearchBounds(6, 1)),
        (HomClass(4, r1=0, r2=-3, s1=0, s2=-1), SearchBounds(6, 1)),
        (HomClass(4, r1=0, r2=0, s1=-1, s2=-1), SearchBounds(6, 2)),
    ],
    ids=lambda value: (
        value.describe() if isinstance(value, HomClass) else f"bounds ({value.word_len}, {value.coord})"
    ),
)
def test_search_keeps_the_least_text_among_pairs_of_least_size(cls, bounds):
    # several pairs of the least size, the least text not the first that
    # the scan meets: a scan that stopped at a pair of equal size, in a
    # level or in an a-side, would return another one
    assert _outcome(search_witness(cls, bounds)) == _outcome(reference_search(cls, bounds))


def _classes_within(bounds):
    """The classes of _grid_classes(1) whose t_a lies within bounds; at
    (6, 1) and at (4, 2) every t_a is shared."""
    return [
        cls for cls in _grid_classes(1)
        if max(abs(cls.images()[0].m), abs(cls.images()[0].n)) <= bounds.coord
    ]


@cache
def _reference_outcomes(bounds):
    """The reference's outcome for each class of _classes_within(bounds)."""
    return {cls: _outcome(reference_search(cls, bounds)) for cls in _classes_within(bounds)}


def _warm_mismatches(bounds):
    """The classes of _reference_outcomes(bounds) whose search differs from
    the reference, searched on cleared buckets in order, then in reverse."""
    expected = _reference_outcomes(bounds)
    classes = list(expected)
    _words_by_gmap.cache_clear()
    return [
        cls
        for order in (classes, classes[::-1])
        for cls in order
        if _outcome(search_witness(cls, bounds)) != expected[cls]
    ]


WARM_BOUNDS = (SearchBounds(6, 1), SearchBounds(4, 2))


def test_search_matches_reference_on_a_warm_cache():
    # the rho cache, the a-sides (per t_a) and the b-levels (per m and
    # n mod 2 of t_a) outlive a search and are shared by the classes that
    # share those, so a stale entry would change a later outcome
    for bounds in WARM_BOUNDS:
        twists = Counter(cls.images()[0] for cls in _reference_outcomes(bounds))
        assert min(twists.values()) > 1, bounds
        assert _warm_mismatches(bounds) == [], bounds


def test_warm_search_catches_b_levels_of_the_wrong_parity(monkeypatch):
    # b-levels kept per m of t_a alone: a class whose n has the other
    # parity reads levels folded for the wrong (m, n mod 2)
    twist_state = witness._twist_state

    def by_m_alone(states, key):
        return twist_state(states, (key[0], 0) if isinstance(key, tuple) else key)

    monkeypatch.setattr(witness, "_twist_state", by_m_alone)
    assert any(_warm_mismatches(bounds) for bounds in WARM_BOUNDS)


def test_warm_search_catches_a_dropped_a_word(monkeypatch):
    a_side = witness._a_side

    def without_first_word(*args):
        factor, entries = a_side(*args)
        return factor, entries[1:]

    monkeypatch.setattr(witness, "_a_side", without_first_word)
    assert any(_warm_mismatches(bounds) for bounds in WARM_BOUNDS)


def test_warm_search_catches_a_b_level_in_reverse_order(monkeypatch):
    # the level loop stops at the first word past the best size found, so
    # it must see the words in order of letters
    b_levels = witness._b_levels

    def reversed_levels(*args):
        return {level: words[::-1] for level, words in b_levels(*args).items()}

    monkeypatch.setattr(witness, "_b_levels", reversed_levels)
    assert any(_warm_mismatches(bounds) for bounds in WARM_BOUNDS)


def test_warm_search_catches_an_a_side_in_reverse_order(monkeypatch):
    a_side = witness._a_side

    def reversed_side(*args):
        factor, entries = a_side(*args)
        return factor, entries[::-1]

    monkeypatch.setattr(witness, "_a_side", reversed_side)
    assert any(_warm_mismatches(bounds) for bounds in WARM_BOUNDS)


def test_warm_search_catches_psi2_of_theta_folded_with_psi_images(monkeypatch):
    # b-levels whose psi'∘theta(t_a) folds read psi's base images: the
    # psi' stage then refuses true pairs
    b_levels = witness._b_levels

    def psi2_folded_as_psi(groups, t_a):
        images = _psi_images(_PSI, t_a)
        return {
            level: tuple((letters, q, p, _fold(images, w), p2, w) for letters, q, p, _, p2, w in words)
            for level, words in b_levels(groups, t_a).items()
        }

    monkeypatch.setattr(witness, "_b_levels", psi2_folded_as_psi)
    assert any(_warm_mismatches(bounds) for bounds in WARM_BOUNDS)


def test_kept_state_matches_its_definition():
    # after searches of classes sharing t_a and (m, n mod 2), every b-level
    # and a-side held is what its definition gives for its key, in order of
    # letters; at word_len 6 some a-buckets hold their words out of that
    # order
    reordered = sum(_assert_kept_state_matches_its_definition(bounds) for bounds in WARM_BOUNDS)
    assert reordered > 0


def _assert_kept_state_matches_its_definition(bounds):
    """The number of a-sides held whose bucket holds its words out of
    order of letters."""
    _words_by_gmap.cache_clear()
    for cls in _classes_within(bounds):
        search_witness(cls, bounds)
    buckets, rhos, levels_by_twist, sides_by_twist = _words_by_gmap(bounds.word_len)
    assert len(levels_by_twist) > 1 and len(sides_by_twist) > 1
    mul = _a5()[0]
    for _, entries in buckets.items():
        for _, words in entries:
            for w, p, p2, letters in words:
                assert (p, p2, letters) == (_psi(w), _psi(w, _PSI2), w.letter_length())
    for (m, d), b_levels in levels_by_twist.items():
        t = KleinElt(m, d)
        for b_key, levels in b_levels.items():
            held = [w_b for words in levels.values() for *_, w_b in words]
            bucket = [w for _, entries in buckets[b_key] for w, *_ in entries]
            assert sorted(held, key=str) == sorted(bucket, key=str)
            for level, words in levels.items():
                assert [letters for letters, *_ in words] == sorted(letters for letters, *_ in words)
                for letters_b, q_b, p_b, q2_b, p2_b, w_b in words:
                    pu, pv = w_b.exponent_sums()
                    assert level == _ab_mul((0, 0, m, d), (pu, pv, 0, 0))[0] - pu
                    assert (letters_b, p_b, p2_b) == (w_b.letter_length(), _psi(w_b), _psi(w_b, _PSI2))
                    assert q_b == _psi(theta(t, w_b))
                    assert q2_b == _psi(theta(t, w_b), _PSI2)
    reordered = 0
    for t_a, a_sides in sides_by_twist.items():
        w_l = lsigma(BraidElt(ONE, t_a)).word
        for a1, (factor, entries) in a_sides.items():
            assert factor == theta(KleinElt(a1, -2 * t_a.n), w_l)
            words = [w for _, es in buckets[a1, -2 * t_a.n] for w, *_ in es]
            in_order = sorted(words, key=Word.letter_length)
            assert [a.word for a, *_ in entries] == in_order
            reordered += in_order != words
            for a, row_a, row2_a, r, pu_a, pu_ls, pv_ls, letters_a in entries:
                w_ls = lsigma(a).word
                assert a.twist == t_a and row_a == mul[_psi(a.word)]
                assert row2_a == mul[_psi(a.word, _PSI2)]
                assert r == rhos[a.word] == rho(a.word) and w_ls == r * factor
                assert (pu_a, letters_a) == (a.word.exponent_sums()[0], a.word.letter_length())
                assert (pu_ls, pv_ls) == w_ls.exponent_sums()
    return reordered


def _assert_kept_with_the_buckets(monkeypatch, name):
    """Calls of witness.<name> per search: some on cold buckets, none on
    warm ones, none for another class with the same t_a, and as many again
    once the buckets are cleared or evicted."""
    calls = []
    builder = getattr(witness, name)

    def counted(*args):
        calls.append(args)
        return builder(*args)

    monkeypatch.setattr(witness, name, counted)
    # t_a = (0, 0) for both; the second's plan reaches only buckets that
    # the first's reaches
    cls, same_twist = HomClass(3, i=0, s1=0, s2=0), HomClass(3, i=0, s1=0, s2=2)
    assert cls.images()[0] == same_twist.images()[0] and cls.images()[1] != same_twist.images()[1]

    def builder_calls(word_len, searched=cls):
        before = len(calls)
        search_witness(searched, SearchBounds(word_len, 1))
        return len(calls) - before

    _words_by_gmap.cache_clear()
    first = builder_calls(4)
    assert first > 0
    assert builder_calls(4) == 0  # warm: every value is kept
    assert builder_calls(4, same_twist) == 0
    _words_by_gmap.cache_clear()
    assert builder_calls(4) == first
    # _WORD_CACHE_SIZE other lengths evict the least recently used one
    for word_len in range(_WORD_CACHE_SIZE):
        builder_calls(word_len)
    assert builder_calls(4) == first


def test_rho_cache_is_released_with_the_buckets(monkeypatch):
    _assert_kept_with_the_buckets(monkeypatch, "rho")


def test_psi_values_are_released_with_the_buckets(monkeypatch):
    # psi of every short word is kept in its bucket; the folds of
    # psi∘theta(t) are not psi calls
    _assert_kept_with_the_buckets(monkeypatch, "_psi")


def test_b_levels_are_released_with_the_buckets(monkeypatch):
    _assert_kept_with_the_buckets(monkeypatch, "_b_levels")


def test_a_sides_are_released_with_the_buckets(monkeypatch):
    _assert_kept_with_the_buckets(monkeypatch, "_a_side")


def test_state_is_kept_for_the_last_twists_only():
    # 2·(_TWIST_CACHE_SIZE + 2) distinct t_a = (r1, 2·s1), with
    # _TWIST_CACHE_SIZE + 2 distinct (m, n mod 2)
    bounds = SearchBounds(2, _TWIST_CACHE_SIZE + 1)
    classes = [
        HomClass(4, r1=r1, r2=1, s1=s1, s2=0)
        for s1 in (0, 1)
        for r1 in range(_TWIST_CACHE_SIZE + 2)
    ]
    _words_by_gmap.cache_clear()
    examined = 0
    for cls in classes:
        result = search_witness(cls, bounds)
        assert _outcome(result) == _outcome(reference_search(cls, bounds))
        examined += result.examined
    assert examined > 0
    _, _, levels, sides = _words_by_gmap(bounds.word_len)
    twists = [cls.images()[0] for cls in classes]
    assert list(sides) == twists[-_TWIST_CACHE_SIZE:]
    assert list(levels) == [(m, 0) for m in range(2, _TWIST_CACHE_SIZE + 2)]
    # a twist searched again is kept last; one evicted is built again
    for cls in (classes[-_TWIST_CACHE_SIZE], classes[0]):
        assert _outcome(search_witness(cls, bounds)) == _outcome(reference_search(cls, bounds))
        assert len(sides) == _TWIST_CACHE_SIZE and list(sides)[-1] == cls.images()[0]


# ---------------------------------------------------------------------------
# the A5 quotients

QUOTIENTS = (_PSI, _PSI2)


def test_a5_table_is_a_group():
    mul, power = _a5()
    elements = range(60)
    assert len(mul) == 60 and all(len(row) == 60 for row in mul)
    assert len(set(mul)) == 60  # no two elements act alike
    assert all(mul[0][x] == mul[x][0] == x for x in elements)
    for x in elements:
        row = mul[x]
        for y in elements:
            xy = row[y]
            for z in elements:
                assert mul[xy][z] == row[mul[y][z]]
    for x in elements:
        assert power[x][0] == 0 and len(power[x]) == 30
        for e in range(29):
            assert power[x][e + 1] == mul[power[x][e]][x]
        assert mul[x][power[x][29]] == mul[power[x][29]][x] == 0  # the inverse
    # psi(u) has order 5 and psi(v) order 3, and they generate all 60
    assert [power[1][e] == 0 for e in range(1, 6)] == [False] * 4 + [True]
    assert [power[2][e] == 0 for e in range(1, 4)] == [False, False, True]
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [mul[x][g] for x in frontier for g in (1, 2) if mul[x][g] not in reached]
        reached.update(frontier)
    assert reached == set(elements)


def test_psi_and_psi2_map_onto_a5_squared():
    # the joint image of (psi, psi'), breadth-first from (1, 1) over the
    # images of u and v, is all of A5 × A5
    mul = _a5()[0]
    gens = tuple(zip(*QUOTIENTS))  # (psi(u), psi'(u)), (psi(v), psi'(v))
    assert gens == ((1, 2), (2, 1))
    reached, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        frontier = [
            (mul[x][g], mul[y][h])
            for x, y in frontier
            for g, h in gens
            if (mul[x][g], mul[y][h]) not in reached
        ]
        reached.update(frontier)
    assert len(reached) == 3600


def _inverse(x):
    return _a5()[1][x][29]


# exponents past the element orders 2, 3 and 5, and a multiple of 30
long_words = st.lists(
    st.tuples(st.sampled_from("uv"), st.integers(-61, 61)), max_size=6
).map(lambda rs: Word(tuple(rs)))
far_twists = st.builds(
    KleinElt, st.integers(-2 * MAX_COORD, 2 * MAX_COORD), st.integers(-5, 5)
)


@PROFILE
@given(long_words, long_words)
def test_psi_is_a_homomorphism(x, y):
    mul = _a5()[0]
    for base in QUOTIENTS:
        assert _psi(x * y, base) == mul[_psi(x, base)][_psi(y, base)]
        assert _psi(x.inv(), base) == _inverse(_psi(x, base))


@PROFILE
@given(long_words, far_twists)
def test_psi_of_theta_is_a_fold(w, t):
    for base in QUOTIENTS:
        assert _fold(_psi_images(base, t), w) == _psi(theta(t, w), base)


def test_psi_of_theta_reads_m_and_the_parity_of_n():
    w = parse_word("u^2 v^-1 u v^3")
    for base in QUOTIENTS:
        for m in (-2 * MAX_COORD, -7, 0, 1, 2 * MAX_COORD):
            for n in range(-4, 5):
                t = KleinElt(m, n)
                assert _psi_images(base, t) == _psi_images(base, KleinElt(m, n % 2))
                assert _fold(_psi_images(base, t), w) == _psi(theta(t, w), base)


@PROFILE
@given(words, twists, words, twists)
def test_hoisted_word_equation(w_a, t_a, w_b, t_b):
    """The grouped scan's filter and word equation against the engine."""
    a, b = BraidElt(w_a, t_a), BraidElt(w_b, t_b)
    ls = lsigma(a)
    lhs = a * b * ls
    ab = _ab_mul(_ab_mul(_ab_image(w_a, t_a), _ab_image(w_b, t_b)), _ab_image(ls.word, ls.twist))
    assert ab == _ab_image(lhs.word, lhs.twist)
    hoisted = w_a * theta(t_a, w_b) * theta(t_a * t_b, ls.word)
    assert hoisted == lhs.word
    if ab == _ab_image(w_b, t_b):
        assert (hoisted == w_b) == (lhs == b)
    # the search's levels: ab is the relation's left side at zero exponent
    # sums of w_b, plus a part linear in them with coefficients from t_a
    pu, pv = w_b.exponent_sums()
    zero = _ab_mul(_ab_mul(_ab_image(w_a, t_a), (0, 0, t_b.m, t_b.n)), _ab_image(ls.word, ls.twist))
    level = _ab_mul((0, 0, t_a.m, t_a.n), (pu, pv, 0, 0))[0] - pu
    assert ab == (zero[0] + level + pu, zero[1] + pv, *zero[2:])
    # of zero, only the first component can fail: the second is 0, since
    # lsigma negates the v-exponent, and the twists match whenever w_a
    # has the exponents that condition (i) forces
    assert zero[1] == 0
    assert t_a * t_b * (KleinElt(*forced_word_exponents(a, b)) * t_a) == t_b
    # the A5 stages: the images of the hoisted side, so a solution passes
    # both
    mul = _a5()[0]
    for base in QUOTIENTS:
        image_lhs = mul[mul[_psi(w_a, base)][_fold(_psi_images(base, t_a), w_b)]][
            _fold(_psi_images(base, t_a * t_b), ls.word)
        ]
        assert image_lhs == _psi(hoisted, base)
        if hoisted == w_b:
            assert image_lhs == _psi(w_b, base)


def test_search_bounds_budget():
    SearchBounds(MAX_WORD_LEN, MAX_COORD)
    for word_len, coord in ((MAX_WORD_LEN + 1, 0), (14, 2), (4, MAX_COORD + 1), (4, 10**9)):
        with pytest.raises(ValueError, match="budget"):
            SearchBounds(word_len, coord)


def _no_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("the scan started")

    for builder in ("rho", "lsigma", "theta"):
        monkeypatch.setattr(witness, builder, scan)


def test_pair_cap_rejects_before_the_scan(monkeypatch):
    cls = HomClass(4, r1=0, r2=1, s1=0, s2=1)
    bounds = SearchBounds(4, 2)
    examined = search_witness(cls, bounds).examined
    assert examined == reference_search(cls, bounds).examined
    _no_scan(monkeypatch)
    monkeypatch.setattr(witness, "MAX_PAIRS", examined - 1)
    with pytest.raises(ValueError, match=f"search of {examined} candidate pairs exceeds the budget"):
        search_witness(cls, bounds)


def _no_words(monkeypatch):
    def enumerate_words(*args):
        raise AssertionError("the short words were built")

    _words_by_gmap.cache_clear()
    monkeypatch.setattr(witness, "_short_words", enumerate_words)


def test_bucket_sizes_count_the_buckets():
    for word_len in range(8):
        buckets, *_ = _words_by_gmap(word_len)
        sizes = {key: sum(len(ws) for _, ws in groups) for key, groups in buckets.items()}
        assert _bucket_sizes(word_len) == sizes
    assert sum(_bucket_sizes(MAX_WORD_LEN).values()) == 2 * 3**MAX_WORD_LEN - 1


def test_cli_rejects_search_over_pair_cap(capsys, monkeypatch):
    # within SearchBounds, but 2,230,980 and 34,005,474 pairs; the 39,365
    # and 118,097 words of the two lengths are counted, not built
    _no_scan(monkeypatch)
    _no_words(monkeypatch)
    args = ["witness", "--type", "4", "--r1", "0", "--r2", "1", "--s1", "0", "--s2", "1"]
    for bounds, pairs, coord in ((["--bounds", "9", "--coords", "1"], 2230980, 1),
                                 (["--bounds", "10"], 34005474, 2)):
        code = main([*args, "--search", *bounds])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (
            f"error: search of {pairs} candidate pairs exceeds the budget of {MAX_PAIRS} "
            f"at word_len={bounds[1]}, coord={coord}\n"
        )


@pytest.mark.parametrize("option", [("--bounds", "14"), ("--coords", str(10**9))])
def test_cli_rejects_search_over_budget(capsys, monkeypatch, option):
    def no_enumeration(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(witness, "_short_words", no_enumeration)
    monkeypatch.setattr(witness, "_words_by_gmap", no_enumeration)
    args = ["witness", "--type", "3", "--i", "0", "--s1", "0", "--s2", "1", "--search"]
    code = main([*args, *option])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "budget" in err


def _no_pair(monkeypatch):
    def no_pair(rep):
        raise AssertionError("the base pair was built")

    monkeypatch.setattr(witness, "_base_pair", no_pair)


OVER_WITNESS_BUDGET = [
    HomClass(4, r1=MAX_WITNESS_PARAM + 1, r2=1, s1=0, s2=0),
    HomClass(4, r1=0, r2=-MAX_WITNESS_PARAM - 1, s1=0, s2=2),
    HomClass(4, r1=0, r2=0, s1=-MAX_WITNESS_PARAM - 1, s2=1),
    HomClass(1, i=1, s1=MAX_WITNESS_PARAM + 1, s2=1),
    HomClass(1, i=0, s1=-100_000, s2=3),
]


def test_witness_budget_rejects_before_the_pair(monkeypatch):
    # at the budget the branches still build and verify their pair
    at_budget = [
        HomClass(1, i=1, s1=-MAX_WITNESS_PARAM, s2=1),
        HomClass(4, r1=0, r2=MAX_WITNESS_PARAM - 1, s1=0, s2=0),
    ]
    for cls in at_budget:
        assert build_witness(cls).cls == cls
    _no_pair(monkeypatch)
    for cls in OVER_WITNESS_BUDGET:
        with pytest.raises(ValueError, match=rf"\|s1\| <= {MAX_WITNESS_PARAM}"):
            build_witness(cls)
    # type 3 has no parameter in the budget: its representative is fixed
    monkeypatch.undo()
    assert build_witness(HomClass(3, i=1, s1=0, s2=10**9)).source == "shifted"


def test_witness_budget_is_inclusive(monkeypatch):
    monkeypatch.setattr(witness, "MAX_WITNESS_PARAM", 3)
    assert build_witness(HomClass(4, r1=3, r2=1, s1=0, s2=0)).source == "constructed"
    with pytest.raises(ValueError, match="budget"):
        build_witness(HomClass(4, r1=4, r2=1, s1=0, s2=0))


def test_lsigma_budget_refuses_large_products_of_r1_and_s1():
    # within MAX_WITNESS_PARAM, but a's word has about 4·r1·s1 letters, and
    # its image under lsigma would write far more than MAX_RUNS runs
    with pytest.raises(ValueError, match=rf"exceeds the budget of {MAX_RUNS} runs written"):
        build_witness(HomClass(4, r1=MAX_WITNESS_PARAM, r2=0, s1=MAX_WITNESS_PARAM, s2=1))
    # a smaller product of the two is written
    assert build_witness(HomClass(4, r1=200, r2=0, s1=20, s2=1)).source == "constructed"


@pytest.mark.parametrize("args", [["--type", "4", "--r1", "30000", "--r2", "1"],
                                  ["--type", "1", "--i", "1", "--s1", "100000", "--s2", "1"]])
def test_cli_rejects_witness_over_budget(capsys, monkeypatch, args):
    _no_pair(monkeypatch)
    assert main(["witness", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"<= {MAX_WITNESS_PARAM}" in err
