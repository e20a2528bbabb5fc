"""Golden digests of the decision and small-cancellation outputs.

Refactors of ``reflections`` and ``pieces`` must not change any output:
this pins a sha256 over the JSON of every decision and report on two
fixed grids.  A digest changes only when an output changes; if that is
intended, recompute it with ``golden_digest`` and say why in the change.
"""

import hashlib
import json
import math

from twobridge import INFINITY, Slope, is_null_homotopic, small_cancellation_report

DECISION_PIVOTS = (Slope(1, 2), Slope(2, 7), Slope(5, 13), Slope(8, 21),
                   Slope(3), Slope(-4), INFINITY)

DECISION_DIGEST = "338efd93ca77a1fbce44e1f9683d42c4520dea4c4a864974375c29f731699154"
REPORT_DIGEST = "2ac7685d62d72e4e2db8084cf6e5cf05e2950ded97081a6730473cc429907105"


def golden_digest(objs) -> str:
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


def decision_grid():
    """s = q/p with p <= 25 and -p <= q <= 3p, against each pivot."""
    for r in DECISION_PIVOTS:
        for p in range(1, 26):
            for q in range(-p, 3 * p + 1):
                if math.gcd(q, p) == 1:
                    yield Slope(q, p), r


def report_grid():
    """Every r = q/p in (0, 1) with p <= 40."""
    for p in range(2, 41):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                yield Slope(q, p)


def test_decision_outputs_unchanged():
    objs = [is_null_homotopic(s, r).to_json_obj() for s, r in decision_grid()]
    assert golden_digest(objs) == DECISION_DIGEST


def test_report_outputs_unchanged():
    objs = [small_cancellation_report(r).to_json_obj() for r in report_grid()]
    assert golden_digest(objs) == REPORT_DIGEST
