"""The benchmark's own self-test and pins run against the current program.

perfbench wraps multikd's public loaders, writers and pipeline functions
to trace them. Running its tiny self-test here makes a renamed layer
function, or a change that breaks the trace wrappers, fail the test
suite rather than only the benchmark. Running one pass of the
`offline-cli` and `many-teachers` workloads against their checked-in
pins does the same for a change in their output bytes; the golden
ablation report covers the `ablation` workload. `python -m multikd` is
run as a process too, so the exit code it hands the shell is checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("workload", ["offline-cli", "many-teachers"])
def test_workload_matches_pins(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout[-2000:]


@pytest.mark.parametrize("argv, code", [
    (["distill", "--config", "missing.cfg"], 2),
    ([], 1),
    (["--help"], 0),
    (["dump-logits", "--teacher-id", "a b", "--model", "missing.model", "--data", "missing.txt",
      "--out", "x"], 1),
    (["evaluate", "--dark-factor", "2", "--model", "missing.model", "--data", "missing.txt"], 1),
    (["train-teacher", "--data", "missing.txt"], 1),
    (["evaluate", "--config", ""], 2),
    (["train-teacher", "--data", "missing.txt", "--out", "."], 1),
    (["distill", "--seed", "x"], 1),
])
def test_module_entry_point_exit_code(tmp_path, argv, code):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "multikd", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr[-2000:]


def test_module_entry_point_refuses_a_nul_out_from_the_config_in_one_line(tmp_path):
    (tmp_path / "c.cfg").write_text("out = a\0b\n")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "multikd", "gen-data", "--config", "c.cfg"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, "error: --out 'a\\x00b' holds a NUL byte\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_module_entry_point_reports_a_numerical_failure_in_one_line(tmp_path):
    # the update overflows; the check that refuses it is all the shell sees
    argv = ["distill", "--strategy", "NONE", "--lr", "1e308", "--n-train", "20", "--n-test", "10", "--epochs", "1"]
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "multikd", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr[-2000:]
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: stage 'train-student': ")
