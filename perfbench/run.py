"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 25 --trace 0

Run from the repository root. `--trace 0` reports the end-to-end
metrics, with times scaled to a reference machine speed (probe.py);
`--trace 1` the per-layer metrics of a traced run, in raw times. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
machine and the raw pass times. BLAS runs on one thread.

The program is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("ablation", "offline-cli", "many-teachers")


def prepare() -> None:
    """Pin BLAS to one thread and import multikd from this checkout's src/."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import multikd
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import multikd from {src}: {exc}") from None
    if Path(multikd.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: multikd came from {multikd.__file__}, not from {src}")


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh scratch directory inside the checkout, removed afterwards."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_DIR))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only once no other run is using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import bench
    import workloads

    pins = workloads.load_pins(args.workload)
    with work_dir(args.workload) as work:
        run = bench.Run(args.workload, args.seed, workloads.FULL, pins, work)
        print("machine " + json.dumps(bench.machine(args.seed, run.seed)))
        if args.trace:
            result, detail = bench.measure_traced(run)
        else:
            result, detail = bench.measure(run, args.seconds, ROOT)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
