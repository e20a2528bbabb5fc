"""Acceptance suite: every criterion at its stated bound, exact equality.

Each test prints one pass/fail line (visible in a plain pytest run).
All bounds are the full ones, so this module is the slow part of the
suite (71 s on a 2-core machine with Python 3.11).
"""

import subprocess
import sys

import pytest

from twobridge import verification as V


@pytest.fixture
def report(capsys):
    def _report(label, result):
        status = "PASS" if result.passed else "FAIL"
        with capsys.disabled():
            print(f"\nacceptance {label}: {status} "
                  f"({result.name}: {result.detail})")
        assert result.passed, f"{label} failed: {result.detail}"
    return _report


def test_criterion_1_worked_examples(report):
    report("1 worked-examples", V.check_worked_examples())


def test_criterion_2_formula_cross_validation(report):
    report("2 formula-cross-validation", V.check_word_generators(max_p=300))


def test_criterion_3_sequence_theorems(report):
    report("3 sequence-theorems", V.check_sequence_theorems(max_p=200))


def test_criterion_4_small_cancellation(report):
    report("4 small-cancellation", V.check_small_cancellation(max_p=50))


def test_criterion_5_decision_oracle(report):
    report("5 decision-oracle",
           V.check_decision_oracle(max_r_den=20, max_s_den=40))


def test_criterion_6_criterion_equivalences_as_stated(report):
    # As stated, the chain "factor condition <=> continued-fraction
    # criterion <=> r1 < s < r2, and null-homotopy implies the factor
    # condition" is asserted for every r with p <= 30.  It is false for
    # the single-term slopes r = 1/m: the relator group of 1/2 is free
    # abelian, so the loop of slope 1/4 is null-homotopic (both exponent
    # sums of its relator vanish; the orbit oracle of criterion 5
    # agrees), yet CS(1/4) = ((4,4)) contains no factor (2) = (S1,S2).
    # This test runs the literal statement and is expected to fail; see
    # the companion test below for the attainable statement, which the
    # verify suites check.
    result = V.check_criterion_equivalences(max_r_den=30, max_s_den=60,
                                            single_term_literal=True)
    status = "PASS" if result.passed else "FAIL"
    print(f"acceptance 6 criterion-equivalences (as stated): {status} "
          f"({result.detail})")
    assert result.passed, (
        "criterion 6 is unattainable as stated: for single-term r = 1/m "
        "the factor condition is strictly stronger than the gap test and "
        "is not implied by null-homotopy (counterexample s=1/4, r=1/2). "
        f"Suite detail: {result.detail}")


def test_criterion_6_criterion_equivalences_multiterm(report):
    # The attainable content at the same bounds: the chain holds for
    # every r with a multi-term expansion; for r = 1/m the criterion
    # still matches the gap, null-homotopy still implies the gap, and
    # the factor condition matches its exact characterization.
    report("6 criterion-equivalences (multi-term)",
           V.check_criterion_equivalences(max_r_den=30, max_s_den=60))


def test_criterion_7_special_cases(report):
    report("7 special-cases", V.check_special_slopes(max_s_den=40))


def test_criterion_8_automorphism_shift(report):
    report("8 automorphism-shift", V.check_automorphism_shift(max_s_den=100))


def test_invariant_orbit_agreement_extended(report):
    # Orbit-membership invariant at its wider documented bound (links of
    # denominator up to 30); criterion 5 above is the stated gate.
    report("extra orbit-agreement r<=30",
           V.check_decision_oracle(max_r_den=30, max_s_den=40))


#: The exact text of `twobridge verify --max-den 20`.  A refactor must leave
#: it byte-identical: the same suites, in order, making the same checks.
VERIFY_MAX_DEN_20 = """\
worked-examples         PASS  16 checks
word-generators-agree   PASS  767 checks
sequence-theorems       PASS  1795 checks
small-cancellation      PASS  1905 checks
decision-oracle         PASS  70758 checks
criterion-equivalences  PASS  32858 checks
special-slopes          PASS  1043 checks
automorphism-shift      PASS  257 checks
overall: PASS
"""


def test_criterion_9_cli_determinism(capsys):
    cmd = [sys.executable, "-m", "twobridge", "verify", "--max-den", "20"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout)
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance 9 cli-determinism: {status}")
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode() == VERIFY_MAX_DEN_20
