"""The benchmark's own self-test and pins run against the current program.

perfbench wraps multikd's public loaders, writers and pipeline functions
to trace them. Running its tiny self-test here makes a renamed layer
function, or a change that breaks the trace wrappers, fail the test
suite rather than only the benchmark. Running one pass of the
`offline-cli` and `many-teachers` workloads against their checked-in
pins does the same for a change in their output bytes; the golden
ablation report covers the `ablation` workload. `python -m multikd` is
run as a process too, so the exit code it hands the shell is checked,
and so a report can be made under another host class than the test's
own: the seed-1 rows of the default ablation must be the golden TSV's
under the lowest x86-64 class as well. The package's source is scanned
for names that only numpy 2 has, so the declared numpy>=1.24 floor
stays true.
"""

import ast
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_ABLATION = ROOT / "tests" / "golden" / "ablation_default.tsv"

# The lowest x86-64 host class, set in a child's environment: numpy's
# baseline X86_V2 loops for exp, log and power, and OpenBLAS's Prescott
# core, on one thread.
LOWEST_X86_64 = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
    "OPENBLAS_NUM_THREADS": "1",
}


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


def test_seed_1_report_rows_are_the_golden_rows_under_the_lowest_x86_64_class(tmp_path):
    # Model and target bytes may move with the host's kernels; the top-1
    # report must not. Only x86-64 can run the class; another host runs
    # its own kernels and says so.
    machine = platform.machine()
    x86_64 = machine.lower() in ("x86_64", "amd64")
    ran = "the lowest x86-64 class" if x86_64 else f"this {machine} host's own kernels"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **(LOWEST_X86_64 if x86_64 else {"OPENBLAS_NUM_THREADS": "1"}))
    done = subprocess.run(
        [sys.executable, "-m", "multikd", "ablate", "--seeds", "1", "--out", "report"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    rows = (tmp_path / "report.tsv").read_bytes().splitlines(keepends=True)
    golden = GOLDEN_ABLATION.read_bytes().splitlines(keepends=True)
    want = [golden[0]] + [row for row in golden[1:] if row.split(b"\t")[2] == b"1"]
    if not x86_64 and rows != want:
        pytest.skip(f"ran ablate --seeds 1 under {ran}, not the lowest x86-64 class, which this "
                    "host cannot run; its rows differ from the golden seed-1 rows")
    assert rows == want, f"ablate --seeds 1 under {ran}"


# Names numpy 2 added, which the declared floor (numpy>=1.24) lacks.
NUMPY_2_ONLY = {"mT", "vecdot", "matrix_transpose", "unstack", "isdtype", "introspect"}


def numpy_2_only_uses(source: str) -> list:
    """(line, name) of every attribute, name or import in `source` that NUMPY_2_ONLY lists."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in NUMPY_2_ONLY]
    return found


@pytest.mark.parametrize("source, uses", [
    ("x.mT", [(1, "mT")]),
    ("np.vecdot(a, b)", [(1, "vecdot")]),
    ("np.lib.introspect.opt_func_info()", [(1, "introspect")]),
    ("from numpy import unstack", [(1, "unstack")]),
    ("import numpy.lib.introspect", [(1, "introspect")]),
    ("isdtype(x, 'real floating')", [(1, "isdtype")]),
    ("x.swapaxes(-1, -2)\nnp.matmul(a, b)", []),
])
def test_the_numpy_2_scan_finds_each_name(source, uses):
    assert numpy_2_only_uses(source) == uses


def test_the_package_uses_no_numpy_2_only_name():
    found = {str(path.relative_to(ROOT)): uses
             for path in sorted((ROOT / "src" / "multikd").glob("*.py"))
             if (uses := numpy_2_only_uses(path.read_text()))}
    assert found == {}
