"""Span recorder for the traced run, and the self-time reduction.

``install`` wraps every public module-level function of the library's
layers and rebinds the wrapper wherever the function is bound in a
``twobridge`` module, so cross-layer calls and calls inside one module are
caught without touching the library's source.  Methods and private helpers
are not wrapped: their time is the self time of the public function that
called them.

A span is (name, start, end, parent, operation id), kept in typed arrays in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

#: The library's layers, bottom up; each is the module of that name.
LAYERS = ("slopes", "words", "seqs", "reflections", "pieces", "decide",
          "verification", "cli")


def _letters(result) -> int:
    return len(result) if isinstance(result, str) else 0


def _terms(result) -> int:
    if isinstance(result, tuple):
        return len(result)
    terms = getattr(result, "terms", None)
    return len(terms) if isinstance(terms, tuple) else 0


#: Work counted at the boundary of a layer, from what its functions return.
WORK = {"words": _letters, "seqs": _terms}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.work: dict[str, int] = {}
        self.current_op = -1
        self.on = False
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        rec = self
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.op.append(rec.current_op)
            rec.end.append(0)
            stack.append(i)
            rec.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter_ns()
                stack.pop()
            if work is not None:
                rec.work[layer] = rec.work.get(layer, 0) + work(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Gzip of one JSON header line, then the five arrays in order."""
        with gzip.open(path, "wb", compresslevel=1) as fh:
            header = {"names": self.names, "spans": len(self),
                      "arrays": ["name:i", "start:q", "end:q", "parent:i", "op:i"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer wherever they are bound."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "twobridge" or n.startswith("twobridge."))]
    for layer in LAYERS:
        mod = sys.modules[f"twobridge.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrapped = rec.wrap(f"{layer}.{attr}", obj, WORK.get(layer))
            for m in modules:
                for bound, val in list(vars(m).items()):
                    if val is obj:
                        setattr(m, bound, wrapped)


def out_file(workload: str, seed: int) -> Path:
    """Where the traced run of a workload and seed writes its spans."""
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / f"spans-{workload}-{seed}.bin.gz"


def self_times(names, name, start, end, parent) -> dict[str, list[int]]:
    """Per span name: [self ns, inclusive ns of outermost calls, calls].

    Self time is a span's duration minus the time its child spans cover.
    Spans on one thread nest, so the children of a span never overlap."""
    n = len(start)
    child = array("q", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list[int]] = {}
    for i in range(n):
        dur = end[i] - start[i]
        row = out.setdefault(names[name[i]], [0, 0, 0])
        row[0] += dur - child[i]
        row[2] += 1
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            row[1] += dur
    return out


def by_layer(per_name: dict[str, list[int]]) -> dict[str, list[int]]:
    """Sum the per-name rows into per-layer [self ns, calls]."""
    out: dict[str, list[int]] = {}
    for qual, (self_ns, _, calls) in per_name.items():
        row = out.setdefault(qual.split(".", 1)[0], [0, 0])
        row[0] += self_ns
        row[1] += calls
    return out
