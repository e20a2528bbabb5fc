"""The twobridge benchmark: one workload, one seed, every metric.

    python3 bench/run.py --workload queries --seed 1 --seconds 10 --trace 0

Run from anywhere; it benchmarks the library in the src/ directory next to
this one and uses only the standard library.  It prints a report (each
metric with its unit and sample count) and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: setup_s from fresh
`python -m twobridge` processes, then the workload in a fresh worker
interpreter.  --trace 1 measures the per-layer metrics: the workload runs
untraced, then the same operations run again with every layer's public
functions wrapped in span recorders; the difference is the tracing
overhead.  Spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import spans
import stats
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh processes per set-up measurement; set-up time is their median.
SETUP_RUNS = 11
WORKER_TIMEOUT_S = 150

SUITES = ("worked-examples", "word-generators-agree", "sequence-theorems",
          "small-cancellation", "decision-oracle", "criterion-equivalences",
          "special-slopes", "automorphism-shift")
REGIMES = ("outside", "gap", "cusp", "deep")

#: What a set-up request's output must show for the answer to count
#: (a scan always ends with ∞, which is in every orbit).
SETUP_OK = {"queries": lambda out: out.startswith("null-homotopic = "),
            "structure": lambda out: out.startswith("S = "),
            "sweep": lambda out: out.split()[-1:] == ["inf"]}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{argv[:4]} timed out after {timeout} s") from exc


def measure_setup(workload: str, seed: int, runs: int) -> tuple[list[float], int]:
    """Wall times of fresh `python -m twobridge` answering one request, and
    how many of them failed."""
    argv = [sys.executable, "-m", "twobridge", *workloads.setup_argv(workload, seed)]
    times, failed = [], 0
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = run_child(argv, 60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not SETUP_OK[workload](proc.stdout):
            failed += 1
    return times, failed


def measure_import() -> tuple[float, int]:
    """Median time to import twobridge.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import twobridge.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_RUNS):
        proc = run_child([sys.executable, "-c", code], 60)
        if proc.returncode != 0:
            raise BenchError(f"importing twobridge failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout))
    return stats.median(times), SETUP_RUNS


def run_worker(workload: str, seed: int, seconds: float, traced_ops=None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if traced_ops is not None:
        argv += ["--traced", str(traced_ops)]
    proc = run_child(argv, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_probes(workload: str, seed: int) -> dict:
    """Outcomes of the known-defect probes, printed on one line."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--probes"]
    proc = run_child(argv, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"probes failed ({proc.returncode}): {proc.stderr.strip()[-600:]}")
    probes = json.loads(proc.stdout.strip().splitlines()[-1])
    print("known defects, probed untimed and outside attempted/failed: " + ", ".join(
        f"{name} {outs.count('present')}/{len(outs)} present" for name, outs in probes.items()))
    return probes


def probes_wrong(probes: dict) -> bool:
    return any("wrong" in outs for outs in probes.values())


class Report:
    """Metrics in order, each with value, unit and sample count."""

    def __init__(self):
        self.rows: list[tuple[str, float, str, str]] = []

    def add(self, name: str, value: float, unit: str, samples: str) -> None:
        self.rows.append((name, value, unit, samples))

    def print(self) -> None:
        for name, value, unit, samples in self.rows:
            print(f"  {name:<42} {value:>16.6g} {unit:<16} {samples}")

    def metrics(self, names) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, value, unit, _ in self.rows if name in names}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Report]:
    # Set-up samples are taken before and after the workload so they span the run.
    before, failed_before = measure_setup(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
    w = run_worker(workload, seed, seconds)
    after, failed_after = measure_setup(workload, seed, SETUP_RUNS // 2)
    probes = run_probes(workload, seed)
    setup_failed = failed_before + failed_after
    rep = Report()
    rep.add("setup_s", stats.median(before + after), "s",
            f"median of {SETUP_RUNS} fresh processes: "
            f"twobridge {' '.join(workloads.setup_argv(workload, seed))}")
    ops = w["attempted"]
    rep.add("throughput_ops_s", ops / w["busy_s"], "ops/s",
            f"{ops} ops in {w['busy_s']:.3f} s busy ({w['cpu_s']:.3f} s CPU)")
    rep.add("latency_p50_us", w["p50_us"], "us", f"{ops} ops")
    rep.add("latency_tail_us", w["tail_us"], "us",
            f"p{w['tail_pct']:g} of {ops} ops, {w['tail_beyond']} beyond")
    if workload == "sweep":
        rep.add("scan_s", w["scan_s"], "s", f"{w['scan_jobs']} scan calls")
        rep.add("verify_s", w["verify_s"], "s", "1 run_all(max_den=20)")
    attempted = w["attempted"] + SETUP_RUNS
    failed = w["failed"] + setup_failed
    rep.add("fail_ratio", failed / attempted, "failed/attempted", f"{failed}/{attempted}")
    rep.add("peak_rss_mib", w["rss_mib"], "MiB", "worker process, getrusage")
    result = {"correct": w["wrong"] == 0 and not probes_wrong(probes),
              "attempted": attempted, "failed": failed}
    if w["reasons"]:
        print("failures by reason: " + json.dumps(w["reasons"]))
    return result, rep


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, Report]:
    import_s, import_n = measure_import()
    u = run_worker(workload, seed, seconds)
    ops = u["attempted"] - (1 if workload == "sweep" else 0)  # the verify job always runs
    t = run_worker(workload, seed, seconds, traced_ops=ops)
    probes = run_probes(workload, seed)
    tr = t["trace"]
    layers, names, work = tr["layers"], tr["names"], tr["work"]
    rep = Report()

    def self_s(layer):
        return layers.get(layer, [0, 0])[0] / 1e9

    def inclusive_s(qual):
        return names.get(qual, [0, 0, 0])[1] / 1e9

    def traced_calls(qual):
        return f"{names.get(qual, [0, 0, 0])[2]} calls, traced"

    def hit_ratio(cache):
        c = t["caches"][cache]
        total = c["hits"] + c["misses"]
        return (c["hits"] / total if total else 0.0), "ratio", f"{c['hits']}/{total} lookups"

    def label_p50(label):
        row = u["labels"].get(label, {"n": 0, "p50_us": 0.0})
        return row["p50_us"], "us", f"{row['n']} ops untraced"

    spans_n = f"{tr['spans']} spans"
    rep.add("slopes.self_s", self_s("slopes"), "s", spans_n)
    rep.add("slopes.calls", layers.get("slopes", [0, 0])[1], "count", "traced run")
    for cache in ("cf_expand", "fundamental_endpoints"):
        rep.add(f"slopes.{cache}.hit_ratio", *hit_ratio(cache))
    rep.add("slopes.cache_entries", t["caches"]["cf_expand"]["entries"]
            + t["caches"]["fundamental_endpoints"]["entries"], "count", "at the end of the run")
    for layer, per in (("words", "letters"), ("seqs", "terms")):
        busy = self_s(layer)
        rep.add(f"{layer}.self_s", busy, "s", spans_n)
        rep.add(f"{layer}.{per}_per_s", work.get(layer, 0) / busy if busy else 0.0, "1/s",
                f"{work.get(layer, 0)} {per} returned")
    rep.add("seqs.cyclic_s", inclusive_s("seqs.cyclic_s_sequence"), "s",
            traced_calls("seqs.cyclic_s_sequence"))
    rep.add("seqs.decompose_s", inclusive_s("seqs.decompose"), "s",
            traced_calls("seqs.decompose"))
    counters = t["counters"]
    rep.add("reflections.self_s", self_s("reflections"), "s", spans_n)
    rep.add("reflections.steps", counters.get("steps", 0), "count", "reflections in returned traces")
    rep.add("reflections.steps_max", counters.get("steps_max", 0), "count", "longest returned trace")
    for regime in REGIMES:
        rep.add(f"reflections.classify_p50_us.{regime}", *label_p50(f"null.{regime}"))
    cap = probes.get("cap_exceeded", [])
    rep.add("reflections.cap_exceeded", cap.count("present"), "count",
            f"of {len(cap)} huge-slope probes")
    rep.add("pieces.self_s", self_s("pieces"), "s", spans_n)
    report = u["calls"].get("small_cancellation_report", {"n": 0, "p50_us": 0.0})
    rep.add("pieces.report_p50_us", report["p50_us"], "us", f"{report['n']} calls untraced")
    rep.add("pieces.t4_triples_s", inclusive_s("pieces.t4_by_triples"), "s",
            traced_calls("pieces.t4_by_triples"))
    rep.add("decide.self_s", self_s("decide"), "s", spans_n)
    cands = tr["scan_candidates"]
    rep.add("decide.scan_candidates", cands, "count", "slopes decided inside scan, traced")
    rep.add("decide.scan_yield", counters.get("scan_hits", 0) / cands if cands else 0.0,
            "ratio", f"{counters.get('scan_hits', 0)} returned / {cands} tested")
    suites = tr.get("suites", {})
    for suite in SUITES:
        rep.add(f"verification.{suite}_s", suites.get(suite, 0.0), "s", "traced run_all")
    rep.add("verification.checks", counters.get("verification.checks", 0), "count",
            "items checked by run_all")
    rep.add("verification.self_s", self_s("verification"), "s", spans_n)
    rep.add("cli.main_p50_us", *label_p50("cli"))
    rep.add("cli.import_s", import_s, "s", f"median of {import_n} fresh interpreters")
    rep.add("cli.self_s", self_s("cli"), "s", spans_n)
    self_sum = sum(row[0] for row in layers.values()) / 1e9
    rep.add("trace.untraced_s", u["busy_s"], "s", f"{u['attempted']} ops")
    rep.add("trace.traced_s", t["busy_s"], "s", f"{t['attempted']} ops")
    rep.add("trace.overhead_s", t["busy_s"] - u["busy_s"], "s", "traced minus untraced")
    rep.add("trace.self_sum_s", self_sum, "s", "all layers' self time")
    rep.add("trace.unaccounted_s", abs(self_sum - u["busy_s"]), "s",
            "|self sum - untraced|, within the overhead when accounted")
    rep.add("trace.spans", tr["spans"], "count",
            str(spans.out_file(workload, seed).relative_to(ROOT)))
    result = {"correct": u["wrong"] == 0 and t["wrong"] == 0 and not probes_wrong(probes),
              "attempted": u["attempted"] + t["attempted"],
              "failed": u["failed"] + t["failed"]}
    return result, rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twobridge" / "__init__.py").is_file():
        print(f"error: no twobridge sources under {SRC}", file=sys.stderr)
        return 2
    print(f"twobridge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"{platform.system()} {platform.machine()}")
    try:
        if args.trace:
            result, rep = per_layer(args.workload, args.seed, args.seconds)
        else:
            result, rep = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rep.print()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result["metrics"] = rep.metrics(wanted)
    missing = wanted - set(result["metrics"])
    if missing:
        print(f"error: BENCHMARK.json lists metrics this run does not measure: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
