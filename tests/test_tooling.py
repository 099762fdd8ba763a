"""The benchmark's own self-test runs against the current program.

perfbench wraps multikd's public loaders, writers and pipeline functions
to trace them. Running its tiny self-test here makes a renamed layer
function, or a change that breaks the trace wrappers, fail the test
suite rather than only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
