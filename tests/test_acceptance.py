"""Acceptance suite: one test per criterion, each printing a pass line.

Every equality checked here is exact integer or word arithmetic; there are
no tolerances to tune.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import pytest

from kleinbraid.suites import (
    suite_certificate_grid,
    suite_classifier_cross,
    suite_q_identity,
    suite_specialization,
    suite_structural,
    suite_tilde,
    suite_witness_grid,
)


def _assert_and_report(number: int, label: str, checks) -> None:
    bad = [c for c in checks if not c.ok]
    status = "PASS" if not bad else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status}")
    for c in checks:
        print(f"    - {c.name}: {'ok' if c.ok else 'FAIL ' + c.detail}")
    assert not bad, f"criterion {number} failed: {[c.name for c in bad]}"


@pytest.fixture(scope="module")
def structural_checks():
    return suite_structural()


@pytest.fixture(scope="module")
def classifier_checks():
    return suite_classifier_cross()


@pytest.fixture(scope="module")
def witness_checks():
    return suite_witness_grid()


def test_criterion_1_structural(structural_checks):
    _assert_and_report(1, "structural suite", structural_checks[:3])


def test_criterion_2_kernel():
    _assert_and_report(2, "kernel suite", suite_tilde())


def test_criterion_3_exact_word_identities():
    _assert_and_report(3, "exact word identities", suite_q_identity())


def test_criterion_4_formula_vs_engine(structural_checks):
    _assert_and_report(4, "formula vs engine", structural_checks[3:])


def test_criterion_5_witness_grid(witness_checks):
    _assert_and_report(5, "witness grid", witness_checks[:1])


def test_criterion_6_certificate_grid():
    _assert_and_report(6, "certificate grid", suite_certificate_grid())


def test_criterion_7_specialization():
    _assert_and_report(7, "specialization", suite_specialization())


def test_criterion_8_classifier_cross(classifier_checks):
    _assert_and_report(8, "classifier cross-validation", classifier_checks[:2])


def test_criterion_9_mod4_invariance(classifier_checks, witness_checks):
    _assert_and_report(
        9, "mod-4 invariance", classifier_checks[2:] + witness_checks[1:]
    )
