"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the result lines (the last stdout line of bench/run.py) of
runs of one workload, one line per run, the runs of the two files made with
the same seeds in the same order.  For every metric it prints both medians
with their quartiles and the change.  An end-to-end metric whose new median
is worse than the base median by more than its bound in BENCHMARK.json is a
regression (exit status 1); where the base runs spread wider than the bound
the comparison is unresolved unless every new run beats every base run.  A
gain is claimed only when the new side wins at least nine pairs in ten and
the medians differ by more than the base quartile distance.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{") and '"metrics"' in line:
            runs.append(json.loads(line)["metrics"])
    if not runs:
        raise SystemExit(f"{path}: no result lines")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base, new, better: str, bound: float | None) -> str:
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    pairs = min(len(base), len(new))
    if pairs and wins >= 0.9 * pairs and abs(nmed - bmed) > b3 - b1:
        return f"gain ({wins}/{pairs} pairs)"
    if bound is None:
        return ""
    worse = sign * (bmed - nmed) / bmed if bmed else 0.0
    if worse > bound:
        return f"REGRESSION (bound {bound:.0%})"
    spread = (b3 - b1) / bmed if bmed else 0.0
    if spread > bound and not all(sign * (n - b) > 0 for b in base for n in new):
        return f"unresolved (base spread {spread:.0%} > bound)"
    return f"within bound {bound:.0%}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print(f"{'metric':<42} {'base median [q1, q3]':<34} {'new median [q1, q3]':<34} "
          f"{'change':>8}  verdict")
    for name in sorted(set(base[0]) | set(new[0])):
        bv = [run[name]["value"] for run in base if name in run]
        nv = [run[name]["value"] for run in new if name in run]
        if not bv or not nv:
            continue
        better, bound = rules.get(name, ("lower", None))
        bq, nq = quartiles(bv), quartiles(nv)
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        note = verdict(bv, nv, better, bound)
        regressions += note.startswith("REGRESSION")
        print(f"{name:<42} {describe(bq):<34} {describe(nq):<34} {change:>+8.1%}  {note}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
