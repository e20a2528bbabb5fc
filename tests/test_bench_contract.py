"""The benchmark's own unittests, run as part of the test suite.

The benchmark in ``bench/`` binds library names (cache objects, result
fields, span names); a library rename that breaks those bindings fails
here rather than only when the benchmark is next run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_unittests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
