"""Run one workload in this interpreter and print a JSON summary as the last line.

run.py starts this file in a fresh interpreter for every measured run:

    python3 bench/worker.py --workload queries --seed 1 --seconds 10 [--traced N]

Each operation is timed alone; its output is checked right after, outside
the timed region.  The loop is closed with one client: an operation starts
when the previous one (and its check) has finished.  With --traced N the
worker runs exactly the first N operations of the seed with every layer
wrapped in span recorders, instead of filling --seconds, so a traced run
repeats the work of an untraced one; the spans go to spans.out_file().
With --probes it only runs the seed's known-defect probes, untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns, process_time_ns
from types import SimpleNamespace

import checks
import spans
import stats
import workloads
from farey import INF, parse

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def import_library():
    """Import twobridge from the src/ directory next to this benchmark."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import twobridge
    import twobridge.cli
    if not Path(twobridge.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"twobridge was imported from {twobridge.__file__}, not {src}")
    mods = {layer: sys.modules[f"twobridge.{layer}"] for layer in spans.LAYERS}
    return SimpleNamespace(**mods)


class Refused(Exception):
    """The CLI answered with a non-zero exit code."""


def pair(s) -> tuple[int, int]:
    return s.num, s.den


def trace_fields(obj: dict):
    """(start, steps, result) of a trace in the library's JSON form."""
    steps = [(tuple(st["matrix"]), parse(st["image"])) for st in obj["steps"]]
    return parse(obj["start"]), steps, parse(obj["result"])


class Tally:
    """Latencies, outcomes and counters of one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.latency: list[int] = []
        self.by_label: dict[str, list[int]] = defaultdict(list)
        self.calls: dict[str, list[int]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.counters: Counter = Counter()
        self.busy_ns = 0
        self.cpu_ns = 0

    def record(self, label: str, ns: int, error: str | None, wrong: str | None) -> None:
        self.attempted += 1
        self.latency.append(ns)
        self.by_label[label].append(ns)
        kind = label.split(".", 1)[0]
        if kind != label:
            self.by_label[kind].append(ns)
        self.busy_ns += ns
        if error or wrong:
            self.failed += 1
            self.reasons[error or f"wrong: {wrong}"] += 1
        if wrong:
            self.wrong += 1

    def summary(self) -> dict:
        pct = workloads.TAIL_PERCENTILE[self.workload]
        tail, beyond = stats.percentile(self.latency, pct)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "reasons": dict(self.reasons.most_common(12)),
            "busy_s": self.busy_ns / 1e9,
            "cpu_s": self.cpu_ns / 1e9,
            "p50_us": stats.median(self.latency) / 1e3,
            "tail_us": tail / 1e3,
            "tail_pct": pct,
            "tail_beyond": beyond,
            "labels": {k: {"n": len(v), "p50_us": stats.median(v) / 1e3,
                           "total_s": sum(v) / 1e9}
                       for k, v in sorted(self.by_label.items())},
            "calls": {k: {"n": len(v), "p50_us": stats.median(v) / 1e3,
                          "total_s": sum(v) / 1e9}
                      for k, v in sorted(self.calls.items())},
            "counters": dict(self.counters),
        }


class Runner:
    def __init__(self, lib, workload: str, seed: int, tracing: bool):
        self.lib = lib
        self.Slope = lib.slopes.Slope
        self.tally = Tally(workload)
        self.seed = seed
        self.rec = spans.Recorder()
        # The caches are read through the original objects; the checkers'
        # own library calls are subtracted so the ratios describe the workload.
        self.caches = {"cf_expand": lib.slopes.cf_expand,
                       "fundamental_endpoints": lib.slopes.fundamental_endpoints}
        self.check_cache = Counter()
        self.certified = (None, {})  # (r, {s: certified null(s, r)}) for the scan checks
        self.scan_ns = 0
        self.verify_results = None
        self.tracing = tracing
        if tracing:
            spans.install(self.rec)

    # --- the closed loop

    def timed(self, label: str, fn, check) -> None:
        rec = self.rec
        rec.current_op = self.tally.attempted
        rec.on = self.tracing
        error = None
        c0 = process_time_ns()
        t0 = perf_counter_ns()
        try:
            out = fn()
        except Refused as exc:
            error = f"refused: {exc}"
        except Exception as exc:  # the boundary of one operation: count it and go on
            error = type(exc).__name__
        t1 = perf_counter_ns()
        self.tally.cpu_ns += process_time_ns() - c0
        rec.on = False
        wrong = None
        if error is None:
            before = {k: c.cache_info() for k, c in self.caches.items()}
            try:
                wrong = check(out)
            except Exception as exc:  # a checker crash is a failed check, not a crash
                wrong = f"checker raised {type(exc).__name__}: {exc}"
            for k, c in self.caches.items():
                after = c.cache_info()
                self.check_cache[k + ".hits"] += after.hits - before[k].hits
                self.check_cache[k + ".misses"] += after.misses - before[k].misses
        self.tally.record(label, t1 - t0, error, wrong)

    def call(self, name: str, fn, *args):
        """Time one library call inside an operation."""
        t0 = perf_counter_ns()
        out = fn(*args)
        self.tally.calls[name].append(perf_counter_ns() - t0)
        return out

    def cache_summary(self) -> dict:
        out = {}
        for k, c in self.caches.items():
            info = c.cache_info()
            hits = info.hits - self.check_cache[k + ".hits"]
            misses = info.misses - self.check_cache[k + ".misses"]
            out[k] = {"hits": hits, "misses": misses, "entries": info.currsize}
        return out

    # --- certification used by the checkers (outside the timed region)

    def certified_null(self, s, r) -> bool:
        """null(s, r) from the library, accepted only if its trace replays."""
        v = self.lib.decide.is_null_homotopic(self.Slope(*s), self.Slope(*r))
        obj = v.to_json_obj()
        why = checks.check_decision(s, r, obj["answer"], parse(obj["representative"]),
                                    obj["route"], *trace_fields(obj["trace"]))
        if why:
            raise AssertionError(f"certificate for null({s}, {r}) fails: {why}")
        return obj["answer"]

    def check_epi(self, s, r, answer) -> str | None:
        s1 = INF if s == INF else (s[0] + s[1], s[1])
        return checks.check_epimorphism(answer, self.certified_null(s, r),
                                        self.certified_null(s1, r))

    # --- queries

    def run_queries(self, budget_ns: int, n_ops: int | None) -> None:
        for q in self.inputs(workloads.queries(self.seed), budget_ns, n_ops):
            self.timed(f"{q.kind}.{q.regime}", *self.query_op(q))

    def query_op(self, q):
        """The call that answers a query, and the check of its output."""
        lib, s, r = self.lib, self.Slope(*q.s), self.Slope(*q.r)
        if q.kind == "null":
            return (lambda: lib.decide.is_null_homotopic(s, r),
                    lambda v: self.check_null_obj(q, v.to_json_obj(), len(v.trace.steps)))
        if q.kind == "epi":
            return (lambda: lib.decide.has_umpp_epimorphism(s, r),
                    lambda a: self.check_epi(q.s, q.r, a))
        if q.kind == "reduce":
            return (lambda: lib.reflections.reduce_to_fundamental(s, r),
                    lambda t: self.check_reduce_obj(q, t.to_json_obj(), len(t.steps)))
        argv = q.argv()
        return lambda: self.run_cli(argv), lambda text: self.check_cli(q, text)

    def run_probes(self) -> dict:
        """Outcome of each known-defect probe: "present" while the library
        refuses it, "fixed" once it answers right, "wrong" if it answers
        wrong.  Probes are untimed and outside attempted/failed."""
        outcomes: dict[str, list[str]] = defaultdict(list)
        for defect, q in workloads.known_defect_probes(self.seed):
            fn, check = self.query_op(q)
            try:
                out = fn()
            except Exception:  # the defect: the request is refused
                outcomes[defect].append("present")
                continue
            try:
                why = check(out)
            except Exception as exc:  # a checker crash is a failed check
                why = f"checker raised {type(exc).__name__}: {exc}"
            outcomes[defect].append("wrong" if why else "fixed")
            if why:
                print(f"probe {defect}: {why}", file=sys.stderr)
        return dict(outcomes)

    def run_cli(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                raise Refused(f"argparse exit {exc.code}") from None
        if code != 0:
            raise Refused(f"exit {code}")
        return out.getvalue()

    def count_steps(self, n: int) -> None:
        self.tally.counters["steps"] += n
        self.tally.counters["steps_max"] = max(self.tally.counters["steps_max"], n)

    def check_null_obj(self, q, obj: dict, n_steps: int) -> str | None:
        self.count_steps(n_steps)
        return checks.check_decision(q.s, q.r, obj["answer"], parse(obj["representative"]),
                                     obj["route"], *trace_fields(obj["trace"]), q.expect)

    def check_reduce_obj(self, q, obj: dict, n_steps: int) -> str | None:
        self.count_steps(n_steps)
        return checks.check_reduction(q.s, q.r, *trace_fields(obj), q.expect)

    def check_cli(self, q, text: str) -> str | None:
        obj = json.loads(text)
        if q.verb == "null":
            return self.check_null_obj(q, obj, len(obj["trace"]["steps"]))
        if q.verb == "reduce":
            return self.check_reduce_obj(q, obj["trace"], len(obj["trace"]["steps"]))
        return self.check_epi(q.s, q.r, obj["answer"])

    # --- structure

    def run_structure(self, budget_ns: int, n_ops: int | None) -> None:
        for q, p in self.inputs(workloads.structure(self.seed), budget_ns, n_ops):
            self.timed("structure", lambda q=q, p=p: self.analyse(q, p),
                       lambda out, q=q, p=p: checks.check_structure(q, p, out))

    def analyse(self, q: int, p: int) -> dict:
        lib, call = self.lib, self.call
        r = self.Slope(q, p)
        u = call("relator", lib.words.relator, r)
        hat = call("half_relator", lib.words.half_relator, r)
        S = call("s_sequence", lib.seqs.s_sequence, r)
        cs = call("cyclic_s_sequence", lib.seqs.cyclic_s_sequence, r)
        T = call("t_sequence", lib.seqs.t_sequence, r) if q != 1 else None
        r1, r2 = call("fundamental_endpoints", lib.slopes.fundamental_endpoints, r)
        d = call("decompose", lib.seqs.decompose, r)
        nec = call("satisfies_necessary_condition",
                   lib.pieces.satisfies_necessary_condition, r, r)
        report = None
        if p <= 300:
            rep = call("small_cancellation_report", lib.pieces.small_cancellation_report, r)
            report = (rep.c4, rep.t4, rep.min_cyclic_pieces)
        return {"u": u, "hat": hat, "S": S, "CS": cs.terms, "T": T,
                "r1": pair(r1), "r2": pair(r2), "S1": d.s1, "S2": d.s2,
                "necessary": nec, "report": report}

    # --- sweep

    def run_sweep(self, budget_ns: int, n_ops: int | None) -> None:
        lib, S = self.lib, self.Slope
        modes = {"null": lib.decide.ScanMode.NULLHOMOTOPY,
                 "epi": lib.decide.ScanMode.EPIMORPHISM}
        for job in self.inputs(workloads.sweep(self.seed), budget_ns // 2, n_ops):
            r, mode = S(*job.r), modes[job.mode]
            self.timed("scan", lambda: lib.decide.scan(r, job.max_den, mode),
                       lambda hits, job=job: self.check_scan(job, hits))
        self.scan_ns = self.tally.busy_ns
        self.timed("verify", lambda: lib.verification.run_all(max_den=20), self.check_verify)

    def check_scan(self, job, hits) -> str | None:
        if self.certified[0] != job.r:
            self.certified = (job.r, {})
        known = self.certified[1]

        def null(s):
            if s not in known:
                known[s] = self.certified_null(s, job.r)
            return known[s]

        certified = {}
        for s in checks.farey_candidates(job.max_den):
            ok = null(s)
            if job.mode == "epi" and not ok:
                ok = null(INF if s == INF else (s[0] + s[1], s[1]))
            certified[s] = ok
        got = [pair(s) for s in hits]
        self.tally.counters["scan_hits"] += len(got)
        return checks.check_scan(got, certified)

    def check_verify(self, results) -> str | None:
        first = [(res.name, res.passed, res.detail) for res in results]
        again = [(res.name, res.passed, res.detail)
                 for res in self.lib.verification.run_all(max_den=20)]
        self.verify_results = first
        self.tally.counters["verification.checks"] = sum(
            int(detail.split()[0]) for _, _, detail in first if detail.split()[0].isdigit())
        return checks.check_verify(first, verify_text(first), verify_text(again))

    def inputs(self, stream, budget_ns: int, n_ops: int | None):
        """Inputs of whole rounds until the busy time reaches the budget, or
        exactly n_ops inputs."""
        for round_ in stream:
            for item in round_:
                if n_ops is not None and self.tally.attempted >= n_ops:
                    return
                yield item
            if n_ops is None and self.tally.busy_ns >= budget_ns:
                return


def verify_text(results) -> str:
    """The text `twobridge verify` prints for these results."""
    width = max(len(name) for name, _, _ in results)
    lines = [f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}"
             for name, ok, detail in results]
    lines.append(f"overall: {'PASS' if all(ok for _, ok, _ in results) else 'FAIL'}")
    return "\n".join(lines)


def trace_summary(runner: Runner) -> dict:
    rec = runner.rec
    per_name = spans.self_times(rec.names, rec.name, rec.start, rec.end, rec.parent)
    out = {"spans": len(rec), "layers": spans.by_layer(per_name),
           "names": per_name, "work": rec.work}
    # Candidates a scan tested: its direct children that decide one slope.
    deciders = {rec._ids.get(n) for n in ("reflections.classify_orbit",
                                          "decide.has_umpp_epimorphism")}
    scan_id = rec._ids.get("decide.scan")
    run_all_id = rec._ids.get("verification.run_all")
    candidates = 0
    suites = []
    for i in range(len(rec)):
        p = rec.parent[i]
        if p < 0:
            continue
        if rec.name[p] == scan_id and rec.name[i] in deciders:
            candidates += 1
        elif rec.name[p] == run_all_id:
            suites.append((rec.end[i] - rec.start[i]) / 1e9)
    out["scan_candidates"] = candidates
    if runner.verify_results:
        out["suites"] = dict(zip([n for n, _, _ in runner.verify_results], suites))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, default=None, metavar="N",
                    help="run the first N operations traced instead of filling --seconds")
    ap.add_argument("--probes", action="store_true",
                    help="only run the known-defect probes of the seed")
    args = ap.parse_args(argv)
    tracing = args.traced is not None

    lib = import_library()
    runner = Runner(lib, args.workload, args.seed, tracing)
    if args.probes:
        print(json.dumps(runner.run_probes()))
        return 0
    budget_ns = int(args.seconds * 1e9)
    getattr(runner, f"run_{args.workload}")(budget_ns, args.traced)

    out = runner.tally.summary()
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["caches"] = runner.cache_summary()
    if args.workload == "sweep":
        out["scan_s"] = runner.scan_ns / 1e9
        out["scan_jobs"] = len(runner.tally.by_label["scan"])
        out["verify_s"] = runner.tally.by_label["verify"][0] / 1e9
    if tracing:
        out["trace"] = trace_summary(runner)
        runner.rec.write(spans.out_file(args.workload, args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
