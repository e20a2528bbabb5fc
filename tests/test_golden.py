"""Golden digests of the decision, sequence and small-cancellation outputs.

Refactors of ``reflections``, ``seqs`` and ``pieces`` must not change any
output: this pins a sha256 over the JSON of every decision, sequence
structure and report on three fixed grids.  A digest changes only when an output changes; if that is
intended, recompute it with ``golden_digest`` and say why in the change.
The verdict digest leaves the traces out, so it pins the answers,
representatives and routes: a refactor that changes only the reduction
path re-pins ``DECISION_DIGEST`` and must leave ``VERDICT_DIGEST`` alone.
"""

import hashlib
import json
import math

from twobridge.decide import is_null_homotopic
from twobridge.pieces import small_cancellation_report
from twobridge.seqs import cyclic_s_sequence, decompose, s_sequence, t_sequence
from twobridge.slopes import INFINITY, Slope, cf_expand, fundamental_endpoints

DECISION_PIVOTS = (Slope(1, 2), Slope(2, 7), Slope(5, 13), Slope(8, 21),
                   Slope(3), Slope(-4), INFINITY)

DECISION_DIGEST = "02ec2b8fb4e2f11b6f882f91366324247be25c56c573cafa81c2236f5cd93f6f"
VERDICT_DIGEST = "c7d833dcdbff5185674e10f6ef740ad885ef6a58fe23589ece300ba8660276fb"
REPORT_DIGEST = "2ac7685d62d72e4e2db8084cf6e5cf05e2950ded97081a6730473cc429907105"
STRUCTURE_DIGEST = "5d827b21b0b538a1dc1a680169f785c033d54462cf9b67fea255c6ca29c19923"


def golden_digest(objs) -> str:
    return hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()


def decision_grid():
    """s = q/p with p <= 25 and -p <= q <= 3p, against each pivot."""
    for r in DECISION_PIVOTS:
        for p in range(1, 26):
            for q in range(-p, 3 * p + 1):
                if math.gcd(q, p) == 1:
                    yield Slope(q, p), r


def proper_grid(max_den):
    """Every r = q/p in (0, 1) with p <= max_den."""
    for p in range(2, max_den + 1):
        for q in range(1, p):
            if math.gcd(q, p) == 1:
                yield Slope(q, p)


def test_decision_outputs_unchanged():
    objs = [is_null_homotopic(s, r).to_json_obj() for s, r in decision_grid()]
    assert golden_digest(objs) == DECISION_DIGEST


def test_verdicts_unchanged_and_traces_replay():
    objs = []
    for s, r in decision_grid():
        verdict = is_null_homotopic(s, r)
        cur = s
        for refl, image in verdict.trace.steps:
            a, b, c, d = refl.entries()
            cur = Slope(a * cur.num + b * cur.den, c * cur.num + d * cur.den)
            assert cur == image, (s, r)
        assert verdict.trace.start == s and cur == verdict.trace.result, (s, r)
        obj = verdict.to_json_obj()
        del obj["trace"]
        objs.append(obj)
    assert golden_digest(objs) == VERDICT_DIGEST


def test_report_outputs_unchanged():
    objs = [small_cancellation_report(r).to_json_obj() for r in proper_grid(40)]
    assert golden_digest(objs) == REPORT_DIGEST


def test_structure_outputs_unchanged():
    objs = []
    for r in proper_grid(150):
        d = decompose(r)
        t = t_sequence(r) if len(cf_expand(r)) > 1 else None
        objs.append([str(r), s_sequence(r), cyclic_s_sequence(r).terms, t,
                     d.s1, d.s2, [str(e) for e in fundamental_endpoints(r)]])
    assert golden_digest(objs) == STRUCTURE_DIGEST
