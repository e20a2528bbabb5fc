"""Acceptance suite: every criterion at its stated bound, exact equality.

Each test prints one pass/fail line (visible in a plain pytest run).
All bounds are the full ones, so this module is the slow part of the
suite (39 s on a 2-core machine with Python 3.11).
"""

import subprocess
import sys
from math import gcd

import pytest

from twobridge import verification as V
from twobridge.decide import is_null_homotopic
from twobridge.pieces import satisfies_necessary_condition
from twobridge.slopes import Slope


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


@pytest.fixture(scope="module")
def decision_oracle():
    # The run at r <= 30 makes every check of criterion 5's run at
    # r <= 20: its r loop extends the same list over the same s grid, and
    # both translation sweeps stop at r <= 10 and s <= 12.  One run serves
    # both tests below, so each orbit closure is built once.
    return V.check_decision_oracle(max_r_den=30, max_s_den=40)


def test_criterion_5_decision_oracle(report, decision_oracle):
    report("5 decision-oracle (in the r<=30 run)", decision_oracle)


def test_criterion_6_criterion_equivalences_as_stated():
    # As stated, the chain "factor condition <=> continued-fraction
    # criterion <=> r1 < s < r2, and null-homotopy implies the factor
    # condition" is claimed for every r with p <= 30.  The companion test
    # below checks it for every multi-term r at the same bounds, so this
    # test asserts it for the rest, the single-term slopes r = 1/m.
    # There it is false: the relator group of 1/2 is free abelian, so the
    # loop of slope 1/4 is null-homotopic (both exponent sums of its
    # relator vanish; the orbit oracle of criterion 5 agrees), yet
    # CS(1/4) = ((4,4)) contains no factor (2) = (S1,S2).  This test is
    # expected to fail.
    s_grid = [Slope(q, p) for p in range(1, 61) for q in range(1, p + 1) if gcd(q, p) == 1]
    checks = 0
    failures = []
    for m in range(2, 31):
        r = Slope(1, m)
        for s in s_grid:
            snc = satisfies_necessary_condition(s, r)
            checks += 1
            if snc != V.connection_criterion(s, r):
                failures.append(f"factor condition vs criterion at s={s} r={r}")
            if is_null_homotopic(s, r).answer:
                checks += 1
                if not snc:
                    failures.append(f"necessary-condition soundness at s={s} r={r}")
    detail = f"{checks} checks; first failures: " + "; ".join(failures[:V.FAILURE_LIMIT])
    status = "FAIL" if failures else "PASS"
    print(f"acceptance 6 criterion-equivalences (as stated, r = 1/m): {status} "
          f"({detail})")
    assert not failures, (
        "criterion 6 is unattainable as stated: for single-term r = 1/m "
        "the factor condition is strictly stronger than the gap test and "
        "is not implied by null-homotopy (counterexample s=1/4, r=1/2). "
        f"Suite detail: {detail}")


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


def test_invariant_orbit_agreement_extended(report, decision_oracle):
    # Orbit-membership invariant at its wider documented bound (links of
    # denominator up to 30); criterion 5 above is the stated gate.
    report("extra orbit-agreement r<=30", decision_oracle)


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
