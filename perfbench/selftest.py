"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few dozen samples, untraced and
traced, against pins recorded on the spot. It checks that the result
line carries exactly the metric names and units BENCHMARK.json
declares, that every layer the workload runs reads non-zero in the
traced run, that a corrupted pin is caught by the output gate, and that
tracing a public function that no longer exists fails loudly. Takes a
few seconds; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, prepare, work_dir

# Layers each workload runs, so their traced metrics must not read 0.
EXERCISED = {
    "ablation": {
        "datagen.", "trainer.teacher_fit", "harness.teacher_reuse_ratio", "trainer.student_fit_s",
        "trainer.steps", "trainer.step_us", "trainer.calls_per_step", "trainer.avg1_step_ratio",
        "trainer.eval_s", "ensemble.", "harness.self_s", "trace.",
    },
    "offline-cli": {
        "datagen.", "trainer.teacher_fit", "trainer.student_fit_s", "trainer.steps",
        "trainer.step_us", "trainer.calls_per_step", "trainer.eval_s", "ensemble.", "formats.",
        "harness.self_s", "cli.self_s", "trace.",
    },
    "many-teachers": {
        "datagen.", "trainer.teacher_fit", "trainer.student_fit_s", "trainer.steps",
        "trainer.step_us", "trainer.calls_per_step", "trainer.avg1_step_ratio", "trainer.eval_s",
        "ensemble.", "formats.", "harness.self_s", "trace.",
    },
}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(result: dict, units: dict, failed: int, label: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["attempted"] >= 1, f"{label}: attempted >= 1")
    check(result["failed"] == failed, f"{label}: failed {result['failed']}, expected {failed}")
    check(result["correct"] == (failed == 0), f"{label}: correct flag")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == units, f"{label}: metric names and units {got} != {units}")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{label}: metric values are numbers")
    json.dumps(result, allow_nan=False)


def corrupt(pinned: dict) -> dict:
    """The same pins with exactly one cell (or one CLI call's output) wrong."""
    bad = json.loads(json.dumps(pinned))
    if "tsv" in bad:
        lines = bad["tsv"].splitlines(keepends=True)
        tokens = lines[1].split("\t")
        tokens[3] = "-1.0"
        lines[1] = "\t".join(tokens)
        bad["tsv"] = "".join(lines)
    else:
        bad["files"]["student.model"] = "0" * 64
    return bad


def main() -> int:
    prepare()
    import bench
    import layers
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names")
    check(end_to_end == bench.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check(per_layer == layers.UNITS, "per-layer metrics match BENCHMARK.json")

    seed = 0
    program_seed = workloads.program_seed(seed)
    for name in workloads.WORKLOADS:
        with work_dir(f"selftest-{name}") as work:
            pins = bench.record_pins(name, workloads.TINY, [program_seed], work)
            result, _ = bench.measure(bench.Run(name, seed, workloads.TINY, pins, work), 0.0, ROOT)
            check_result(result, end_to_end, 0, f"{name} untraced")
            result, _ = bench.measure_traced(bench.Run(name, seed, workloads.TINY, pins, work))
            check_result(result, per_layer, 0, f"{name} traced")
            zero = sorted(
                metric for metric, m in result["metrics"].items()
                if m["value"] == 0 and any(metric.startswith(p) for p in EXERCISED[name])
            )
            check(not zero, f"{name} traced: layers that ran read 0: {zero}")
            bad = {str(program_seed): corrupt(pins[str(program_seed)])}
            result, _ = bench.measure(bench.Run(name, seed, workloads.TINY, bad, work), 0.0, ROOT)
            check_result(result, end_to_end, 1, f"{name} with one corrupted pin")
        print(f"selftest {name}: ok")

    import probe

    for factor in (1.0, 2.0):  # samples at 0, 1 and 2 s, each `factor` times the reference
        speed = probe.SpeedProbe()
        speed.starts = [0.0, 1.0, 2.0]
        speed.ends = [s + factor * probe.REFERENCE_S for s in speed.starts]
        raw = 2.0 - 2 * factor * probe.REFERENCE_S
        check(abs(speed.raw_seconds(0.0, 2.0) - raw) < 1e-12, "probe: raw time without its loops")
        check(abs(speed.seconds(0.0, 2.0) - raw / factor) < 1e-12,
              f"probe: time at {factor}x the reference duration")
    print("selftest speed probe: ok")

    from multikd import datagen

    original = datagen.gen_dataset
    layers.TRACED.append(("datagen.gen", "multikd.datagen", "gen_dataset_renamed", None))
    try:
        with layers.Tracer().installed():
            check(False, "tracing a missing function did not raise")
    except layers.LayerMissing:
        pass
    finally:
        layers.TRACED.pop()
    check(datagen.gen_dataset is original, "wrapped functions restored after a failed install")
    print("selftest missing layer function: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
