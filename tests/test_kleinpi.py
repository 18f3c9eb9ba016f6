import random

import pytest

from kleinbraid.kleinpi import (
    K_IDENTITY,
    KleinElt,
    delta,
    eps,
    omega,
    parse_klein,
    sign_of,
)


def test_kmul_examples():
    assert KleinElt(1, 0) * KleinElt(0, 1) == KleinElt(1, 1)
    # eps(1) = -1 twists the first coordinate
    assert KleinElt(0, 1) * KleinElt(1, 0) == KleinElt(-1, 1)
    a = KleinElt(5, -3)
    assert a * a.inv() == K_IDENTITY


def test_kinv_examples():
    assert KleinElt(1, 0).inv() == KleinElt(-1, 0)
    assert KleinElt(0, 1).inv() == KleinElt(0, -1)
    # solved by hand from (3,1)(x,y) = (0,0)
    assert KleinElt(3, 1).inv() == KleinElt(3, -1)


def test_associativity_grid():
    grid = [KleinElt(m, n) for m in range(-10, 11, 5) for n in range(-10, 11, 5)]
    for a in grid:
        for b in grid:
            for c in grid:
                assert (a * b) * c == a * (b * c)


def test_indicators():
    assert delta(4) == 0 and delta(-3) == 1
    assert eps(-1) == -1
    assert sign_of(0) == 0 and sign_of(7) == 1 and sign_of(-2) == -1
    assert omega(0) == 1 and omega(3) == 0 and omega(-1) == 0


def test_indicator_identities():
    for n in range(-10, 11):
        assert delta(n) + delta(n + 1) == 1
        assert 1 - eps(n) == 2 * delta(n)
        for n2 in range(-10, 11):
            assert eps(n) * eps(n2) == eps(n + n2)


def test_pow_and_parse():
    assert KleinElt(1, 0) ** 3 == KleinElt(3, 0)
    assert KleinElt(0, 1) ** 2 == KleinElt(0, 2)
    assert KleinElt(1, 1) ** -1 == KleinElt(1, 1).inv()
    assert parse_klein("(3, -4)") == KleinElt(3, -4)
    assert parse_klein(str(KleinElt(-2, 7))) == KleinElt(-2, 7)
    with pytest.raises(ValueError):
        parse_klein("3,-4")


def test_random_inverse_law():
    rng = random.Random(5)
    for _ in range(200):
        a = KleinElt(rng.randint(-20, 20), rng.randint(-20, 20))
        assert a.inv() * a == K_IDENTITY
