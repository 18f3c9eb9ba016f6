"""The automorphism H that carries the i = 0 classes of types 1-3 to the
i = 1 classes: checked on random braids beyond the generator check, and
the generator check shown to catch a wrong image."""

import pytest
from hypothesis import given

from kleinbraid import braid
from kleinbraid.braid import H_IMAGES, H_INV_IMAGES, BraidElt, apply_images, check_h, lsigma, p1
from kleinbraid.certificate import check_certificate
from kleinbraid.classifier import HomClass
from kleinbraid.kleinpi import KleinElt, delta
from kleinbraid.words import U, V

from common import PROFILE, braids


def h(a):
    return apply_images(H_IMAGES, a)


def test_generator_check_passes():
    check_h()


@PROFILE
@given(braids, braids)
def test_h_is_an_lsigma_commuting_automorphism_over_h(a, b):
    assert h(a * b) == h(a) * h(b)
    assert h(lsigma(a)) == lsigma(h(a))
    assert p1(h(a)) == KleinElt(a.twist.m + delta(a.twist.n), a.twist.n)
    assert apply_images(H_INV_IMAGES, h(a)) == a
    assert h(apply_images(H_INV_IMAGES, a)) == a


u = BraidElt(U)
wrong_y = BraidElt(H_IMAGES[3].word, KleinElt(0, 1))

# (images under H, images under H^-1, a law the generator check must report broken)
WRONG = [
    # H(y) with the twist of y itself no longer lies over h
    (H_IMAGES[:3] + (wrong_y,), H_INV_IMAGES, r"p1∘H = h∘p1"),
    # x ↦ (v; 1, 0) breaks the relation between x and y
    (H_IMAGES[:2] + (BraidElt(V, KleinElt(1, 0)),) + H_IMAGES[3:], H_INV_IMAGES,
     r"H breaks y x y\^-1 = x\^-1"),
    # u ↦ u^-1 under both breaks the twisting relations
    ((u.inv(),) + H_IMAGES[1:], (u.inv(),) + H_INV_IMAGES[1:], r"H breaks t g t\^-1"),
    # H in place of its inverse
    (H_IMAGES, H_IMAGES, r"H\^-1∘H = id fails at \(v ; 0, 0\); H∘H\^-1 = id fails"),
    # H followed by conjugation by u: an automorphism over h, but not lsigma's
    (
        tuple(u * g * u.inv() for g in H_IMAGES),
        tuple(u.inv() * g * u for g in H_INV_IMAGES),
        r"H∘lsigma = lsigma∘H",
    ),
]


@pytest.mark.parametrize("images, inv_images, law", WRONG)
def test_wrong_generator_image_is_caught(monkeypatch, images, inv_images, law):
    monkeypatch.setattr(braid, "H_IMAGES", images)
    monkeypatch.setattr(braid, "H_INV_IMAGES", inv_images)
    with pytest.raises(RuntimeError, match=law):
        check_h()
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        check_certificate(HomClass(2, i=1, s1=0, s2=0))


def test_generator_check_runs_once_per_image_set(monkeypatch):
    calls = []
    relation_failures = braid._relation_failures

    def counted(name, images):
        calls.append(name)
        return relation_failures(name, images)

    monkeypatch.setattr(braid, "_relation_failures", counted)
    braid._check_h.cache_clear()
    check_h()
    assert calls == ["H", "H^-1"]
    check_h()
    # images equal in value to checked ones are not checked again
    monkeypatch.setattr(braid, "H_IMAGES", tuple(BraidElt(g.word, g.twist) for g in H_IMAGES))
    check_h()
    assert len(calls) == 2
    # images that fail are checked again at every call
    images, inv_images, law = WRONG[0]
    monkeypatch.setattr(braid, "H_IMAGES", images)
    for _ in range(2):
        with pytest.raises(RuntimeError, match=law):
            check_h()
    assert len(calls) == 6
