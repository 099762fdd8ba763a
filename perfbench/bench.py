"""Measurement loops, machine record and the result line.

Untraced runs give the end-to-end metrics; a traced run gives the
per-layer metrics and the cost of tracing itself. Timings are
medians over the passes of a run; set-up is repeated and its median
reported, so work moved into set-up shows as set-up time.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import probe
import workloads

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Set-up repeats at least this often, and while it has taken under
# SETUP_MIN_S in all, up to SETUP_MAX_REPEATS: cheap set-ups get enough
# samples for a steady median, the 4 s one of many-teachers stays at 3.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 20

# What a fresh process pays before the timed section can start. Its time
# stays raw: start-up is mostly kernel work (exec, page faults, file
# lookups), which does not follow the reference loop's speed; scaling it
# by the child's own reference timings made its spread worse.
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import numpy, multikd.cli"


def machine(workload_seed: int, program_seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload_seed": workload_seed,
        "program_seed": program_seed,
    }


def interpreter_start_s(root: Path) -> float:
    started = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload at one scale and seed, its pins and its work directory."""

    def __init__(self, workload: str, seed: int, scale: workloads.Scale, pins: dict, work: Path):
        self.workload = workloads.WORKLOADS[workload]
        self.scale = scale
        self.seed = workloads.program_seed(seed)
        self.pinned = pins[str(self.seed)]
        self.work = work
        self.attempted = 0
        self.failed = 0

    def setup(self):
        return self.workload.setup(self.scale, self.seed, self.work)

    def run_pass(self, state) -> workloads.PassResult:
        result = self.workload.run_pass(self.scale, self.seed, self.work, state)
        result.failed = self.workload.gate(result.outputs, self.pinned, state)
        self.attempted += result.attempted
        self.failed += result.failed
        return result

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def record_pins(workload: str, scale: workloads.Scale, seeds, work: Path) -> dict:
    """Outputs of one pass per program seed, to be pinned as the expected outputs."""
    wl = workloads.WORKLOADS[workload]
    pins = {}
    for seed in seeds:
        outputs = wl.run_pass(scale, seed, work, wl.setup(scale, seed, work)).outputs
        if "FAILED" in outputs.get("tsv", "") or any(outputs.get("exit", {}).values()):
            raise RuntimeError(f"{workload} seed {seed} failed; refusing to pin its outputs")
        pins[str(seed)] = outputs
    return pins


def measure(run: Run, seconds: float, root: Path) -> tuple[dict, dict]:
    """End-to-end metrics: passes until the next one would overrun `seconds`.

    Times in-process are in seconds at the reference speed (probe.py),
    the fresh interpreter's start-up in raw seconds; the raw times go
    into the detail line.
    """
    raw_setups, setups = [], []
    with probe.SpeedProbe() as speed:
        while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
        ):
            started = time.perf_counter()
            state = run.setup()
            ended = time.perf_counter()
            with speed.paused():  # the child process has the cores to itself
                child_s = interpreter_start_s(root)
            raw_setups.append(speed.raw_seconds(started, ended) + child_s)
            setups.append(speed.seconds(started, ended) + child_s)
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(run.run_pass(state))
            elapsed = time.perf_counter() - started
            if elapsed + statistics.mean(p.seconds for p in passes) > seconds:
                break
    pass_s = [speed.seconds(p.started, p.ended) for p in passes]
    metrics = {
        "wall_s": statistics.median(pass_s),
        "cells_per_s": statistics.median(p.cells_completed / t for p, t in zip(passes, pass_s)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    reference_s = speed.durations()
    detail = {
        "pass_s": pass_s,
        "setup_s": setups,
        "raw_pass_s": [p.seconds for p in passes],
        "raw_setup_s": raw_setups,
        "reference_s": {
            "samples": len(reference_s),
            "median": statistics.median(reference_s),
            "min": min(reference_s),
            "max": max(reference_s),
        },
    }
    return run.result(metrics, END_TO_END), detail


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one traced set-up and one traced pass.

    The tracing overhead is the traced pass time over that time less the
    wrappers' own bookkeeping, which the tracer clocks. Comparing with a
    separate untraced pass would measure mostly the machine's speed
    drift, which over tens of seconds exceeds the overhead many times.
    """
    tracer = layers.Tracer()
    with tracer.installed():
        state = run.setup()
        before = tracer.overhead_s
        traced = run.run_pass(state)
        overhead_s = tracer.overhead_s - before
    per_strategy = {tag: layers.count_calls_per_step(fit) for tag, fit in tracer.fits.items()}
    calls = statistics.mean(per_strategy.values()) if per_strategy else 0.0
    ratio = traced.seconds / (traced.seconds - overhead_s)
    metrics = layers.layer_metrics(tracer.spans, calls, ratio)
    detail = {
        "pass_s": traced.seconds,
        "tracing_overhead_s": overhead_s,
        "spans": len(tracer.spans),
        "calls_per_step_by_strategy": per_strategy,
        "not_exercised": sorted(name for name, value in metrics.items() if value == 0),
    }
    return run.result(metrics, layers.UNITS), detail
