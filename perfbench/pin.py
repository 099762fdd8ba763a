"""Record the expected outputs the benchmark's gate compares against.

    python3 perfbench/pin.py [workload ...]

Runs one full-size pass of each named workload (all by default) for
every pinned program seed and writes pins/<workload>.json. Run it only
on a commit whose outputs are known good: the pins define correct.
"""

from __future__ import annotations

import json
import sys

from run import WORKLOAD_NAMES, prepare, work_dir


def main(argv: list[str]) -> int:
    prepare()
    import bench
    import workloads

    for name in argv or WORKLOAD_NAMES:
        with work_dir(f"pin-{name}") as work:
            pins = bench.record_pins(name, workloads.FULL, workloads.PIN_SEEDS, work)
        workloads.PIN_DIR.mkdir(exist_ok=True)
        path = workloads.PIN_DIR / f"{name}.json"
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {name} seeds {list(workloads.PIN_SEEDS)} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
