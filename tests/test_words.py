import random

import pytest

from kleinbraid.words import (
    BIG_B,
    ONE,
    U,
    V,
    Word,
    WordParseError,
    comm,
    parse_word,
)


def test_mul_examples():
    assert parse_word("u v") * parse_word("v^-1 u") == parse_word("u^2")
    assert ONE * parse_word("u v u") == parse_word("u v u")
    assert parse_word("u v u") * parse_word("u^-1 v^-1 u^-1") == ONE


def test_inv_examples():
    assert parse_word("u v").inv() == parse_word("v^-1 u^-1")
    assert ONE.inv() == ONE
    assert parse_word("u^3").inv() == parse_word("u^-3")


def test_conj_comm_pow_examples():
    assert comm(U, U) == ONE
    assert ONE.conj(parse_word("u v^2")) == parse_word("u v^2")
    assert parse_word("u v") ** -1 == parse_word("v^-1 u^-1")


def test_big_b():
    assert BIG_B == parse_word("u v u v^-1")
    assert BIG_B * BIG_B.inv() == ONE
    assert ONE.conj(BIG_B) == BIG_B


def test_parse_examples():
    assert parse_word("u^2 v^-1 B") == parse_word("u^2 v^-1 u v u v^-1")
    assert parse_word("1") == ONE
    assert parse_word("u u^-1") == ONE


def test_parse_error_carries_position():
    with pytest.raises(WordParseError) as err:
        parse_word("u v x")
    assert err.value.pos == 4
    with pytest.raises(WordParseError):
        parse_word("u ^2")


def test_roundtrip_is_canonical():
    rng = random.Random(42)
    for _ in range(300):
        letters = tuple(
            (rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
        )
        w = Word(letters)
        assert parse_word(str(w)) == w
        assert "B" not in str(w)


def test_insert_cancel_fuzzing():
    # inserting a cancelling pair anywhere never changes the reduced form
    rng = random.Random(7)
    for _ in range(300):
        letters = [(rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        w = Word(tuple(letters))
        pos = rng.randint(0, len(letters))
        g, e = rng.choice("uv"), rng.choice((1, -1))
        noisy = letters[:pos] + [(g, e), (g, -e)] + letters[pos:]
        assert Word(tuple(noisy)) == w


def test_group_laws():
    rng = random.Random(3)

    def rand():
        return Word(
            tuple((rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
        )

    for _ in range(200):
        x, y, z = rand(), rand(), rand()
        assert (x * y) * z == x * (y * z)
        assert x * ONE == x
        assert x * x.inv() == ONE


def test_pow_additivity():
    rng = random.Random(11)
    for _ in range(100):
        x = Word(
            tuple((rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randint(0, 5)))
        )
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        assert x ** (a + b) == x ** a * x ** b


def test_run_length_invariants():
    w = parse_word("u^5 v^-3 u^2")
    assert all(e != 0 for _, e in w.runs)
    assert all(w.runs[i][0] != w.runs[i + 1][0] for i in range(len(w.runs) - 1))
    assert w.letter_length() == 10
    assert V ** 100 * BIG_B * V ** -100 == parse_word("v^100 B v^-100")
    assert len((V ** 100).runs) == 1
