"""The benchmark's three workloads, their inputs and their output gates.

Every workload is a closed loop of passes: one caller, and the next
pass starts only after the previous one returned. A pass is one unit
of work a user of multikd would wait for:

- ablation: in-process `run_ablation` over all six strategies for one
  seed at package defaults. Teacher training and the student SGD loop
  dominate; there is no file I/O. Changes to the training step or to
  how cells share work show here.
- offline-cli: the README's file-based path for one PKD cell, driven
  through `multikd.cli.main`. It is a single cell, so changes that
  share work across cells are bypassed; the text formats and CLI
  parsing run here.
- many-teachers: K teacher logit dumps on disk (K=200 at full size),
  consumed by `run_ablation` over AVG1/AVG2/GTD/PKD with `teacher_paths`
  and `data_dir` at a short fixed epoch count. It tests the paper's
  claim that adding teachers changes only the one-shot assembly.

The benchmark's seed picks one of the pinned program seeds, so every
pass can be checked byte for byte against outputs recorded when the
benchmark was added (`pins/<workload>.json`, written by `pin.py`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from multikd import cli, datagen, formats, harness, trainer
from multikd import config as cfg
from multikd.datagen import DataParams
from multikd.rng import derive_seed

PIN_DIR = Path(__file__).resolve().parent / "pins"

# Program seeds with pinned outputs; the default ablation's seed list.
PIN_SEEDS = (1, 2, 3, 4, 5)

MANY_TEACHER_STRATEGIES = [cfg.AVG1, cfg.AVG2, cfg.GTD, cfg.PKD]


@dataclass
class Scale:
    """Input sizes. FULL is what the benchmark measures; TINY is for the self-test."""

    data: DataParams  # ablation and offline-cli
    epochs: int  # ablation and offline-cli, teachers and students alike
    many_data: DataParams  # many-teachers
    short_epochs: int  # many-teachers: teacher fits in set-up and the timed students
    teachers: int  # many-teachers K


# many-teachers trains on 1000 samples, not the default 2000: its pass
# then takes about 12 s, so a run fits two passes and a steadier median.
FULL = Scale(
    data=DataParams(), epochs=30, many_data=DataParams(n_train=1000), short_epochs=1, teachers=200
)
TINY = Scale(
    data=DataParams(n_train=48, n_test=24), epochs=1,
    many_data=DataParams(n_train=48, n_test=24), short_epochs=1, teachers=5,
)


@dataclass
class PassResult:
    started: float  # perf_counter at the start and end of the timed section
    ended: float
    attempted: int  # cells, or CLI calls for offline-cli
    cells: int  # (strategy, seed) cells the pass runs
    outputs: dict = field(default_factory=dict)
    failed: int = 0  # attempted units the output gate rejected

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @property
    def cells_completed(self) -> int:
        return max(0, self.cells - self.failed)


def program_seed(workload_seed: int) -> int:
    return PIN_SEEDS[workload_seed % len(PIN_SEEDS)]


def load_pins(workload: str) -> dict:
    with open(PIN_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report_cells(text: str) -> dict[tuple[str, str], str]:
    """Report rows keyed by (strategy, seed); a FAILED row keys like any other."""
    rows = {}
    for line in text.splitlines()[1:]:
        tokens = line.split("\t")
        rows[(tokens[0], tokens[2])] = line
    return rows


def gate_report(outputs: dict, pinned: dict) -> int:
    """Cells whose report row differs from the pinned row, or are missing.

    A report that differs only outside the rows (its header, say) counts
    as one failure, so the report bytes stay pinned as a whole.
    """
    expected = _report_cells(pinned["tsv"])
    got = _report_cells(outputs["tsv"])
    failed = sum(1 for key, row in expected.items() if got.get(key) != row)
    if failed == 0 and outputs["tsv"] != pinned["tsv"]:
        failed = 1
    return failed


# ---------------------------------------------------------------------------
# ablation


def _timed_ablation(base: harness.RunConfig, strategies: list[str], seed: int) -> PassResult:
    started = time.perf_counter()
    report = harness.run_ablation(base, strategies, [seed])
    ended = time.perf_counter()
    n = len(strategies)
    return PassResult(started, ended, n, n, {"tsv": harness.report_machine_text(report)})


def ablation_setup(scale: Scale, seed: int, work: Path) -> harness.RunConfig:
    return harness.RunConfig(distill=cfg.DistillConfig(epochs=scale.epochs), data=scale.data)


def ablation_pass(scale: Scale, seed: int, work: Path, base: harness.RunConfig) -> PassResult:
    return _timed_ablation(base, list(cfg.STRATEGIES), seed)


# ---------------------------------------------------------------------------
# offline-cli


@dataclass
class CliCall:
    name: str
    argv: list[str]
    produces: list[str]  # files, relative to the work directory
    pin_stdout: bool = False  # stdout carries no paths, so it is pinned too


def offline_cli_setup(scale: Scale, seed: int, work: Path) -> list[CliCall]:
    d = work / "data"
    size = [
        "--n-train", str(scale.data.n_train),
        "--n-test", str(scale.data.n_test),
        "--epochs", str(scale.epochs),
    ]
    views = [f"data/{split}_{m}.txt" for split in datagen.SPLITS for m in datagen.MODALITIES]
    teachers = ["--teacher", str(work / "tA.logits"), "--teacher", str(work / "tB.logits")]
    calls = [CliCall("gen-data", ["gen-data", "--seed", str(seed), "--out", str(d)] + size, views)]
    for tag, stage in (("A", harness.STAGE_TEACHER_A), ("B", harness.STAGE_TEACHER_B)):
        calls.append(CliCall(
            f"train-teacher-{tag}",
            ["train-teacher", "--data", str(d / f"train_{tag}.txt"),
             "--seed", str(derive_seed(seed, stage)), "--out", str(work / f"t{tag}.model")] + size,
            [f"t{tag}.model"],
        ))
    for tag in ("A", "B"):
        calls.append(CliCall(
            f"dump-logits-{tag}",
            ["dump-logits", "--model", str(work / f"t{tag}.model"),
             "--data", str(d / f"train_{tag}.txt"), "--teacher-id", f"teacher-{tag}",
             "--out", str(work / f"t{tag}.logits")],
            [f"t{tag}.logits"],
        ))
    calls.append(CliCall(
        "assemble",
        ["assemble", "--labels-from", str(d / "train_A_dark.txt"), "--strategy", cfg.PKD,
         "--out", str(work / "inspect")] + teachers,
        ["inspect.targets.txt", "inspect.weights.txt"],
    ))
    calls.append(CliCall(
        "distill",
        ["distill", "--seed", str(seed), "--strategy", cfg.PKD, "--data-dir", str(d),
         "--out", str(work / "student.model")] + teachers + size,
        ["student.model"],
        pin_stdout=True,
    ))
    calls.append(CliCall(
        "evaluate",
        ["evaluate", "--model", str(work / "student.model"), "--data", str(d / "test_A_dark.txt")],
        [],
        pin_stdout=True,
    ))
    return calls


def offline_cli_pass(scale: Scale, seed: int, work: Path, calls: list[CliCall]) -> PassResult:
    for call in calls:  # a call that writes nothing must not pass on an earlier pass's files
        for rel in call.produces:
            (work / rel).unlink(missing_ok=True)
    exits, stdouts = {}, {}
    started = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                exits[call.name] = cli.main(call.argv)
        except Exception as exc:  # a raising command is a failed call, not a crash
            exits[call.name] = f"raised {type(exc).__name__}: {exc}"
        stdouts[call.name] = out.getvalue()
    ended = time.perf_counter()
    files = {}
    for call in calls:
        for rel in call.produces:
            path = work / rel
            files[rel] = _sha256(path) if path.exists() else "missing"
    outputs = {
        "exit": exits,
        "files": files,
        "stdout": {c.name: stdouts[c.name] for c in calls if c.pin_stdout},
    }
    return PassResult(started, ended, len(calls), 1, outputs)


def gate_cli(outputs: dict, pinned: dict, calls: list[CliCall]) -> int:
    """CLI calls that exited non-zero or whose files or stdout differ from the pins."""
    failed = 0
    for call in calls:
        ok = outputs["exit"][call.name] == 0
        ok = ok and all(outputs["files"][rel] == pinned["files"][rel] for rel in call.produces)
        if call.pin_stdout:
            ok = ok and outputs["stdout"][call.name] == pinned["stdout"][call.name]
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# many-teachers


def many_teachers_setup(scale: Scale, seed: int, work: Path) -> harness.RunConfig:
    """Write the data views and K teacher dumps the timed section reads.

    Two teachers are trained on their clean modality exactly as the
    in-process pipeline would; teacher k is teacher (k mod 2) plus a
    Gaussian perturbation of its own seeded scale, so the weighting has
    teachers of graded quality to tell apart.
    """
    data_dir = work / "data"
    data = datagen.gen_dataset(derive_seed(seed, harness.STAGE_DATA), scale.many_data)
    formats.write_all_views(str(data_dir), data)
    fit = cfg.DistillConfig(epochs=scale.short_epochs)
    base_logits = []
    for view, stage in ((data.train_a, harness.STAGE_TEACHER_A), (data.train_b, harness.STAGE_TEACHER_B)):
        model = harness.train_plain(view, fit, derive_seed(seed, stage))
        base_logits.append(trainer.forward(model, view.features))
    paths = []
    for k in range(scale.teachers):
        rng = np.random.default_rng([seed, k])
        logits = base_logits[k % 2] + rng.normal(scale=rng.uniform(0.25, 2.0), size=base_logits[0].shape)
        path = work / f"teacher-{k:03d}.logits"
        formats.write_logit_dump(str(path), f"teacher-{k:03d}", logits)
        paths.append(str(path))
    return harness.RunConfig(
        distill=fit, data=scale.many_data, teacher_paths=paths, data_dir=str(data_dir)
    )


def many_teachers_pass(scale: Scale, seed: int, work: Path, base: harness.RunConfig) -> PassResult:
    return _timed_ablation(base, MANY_TEACHER_STRATEGIES, seed)


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    setup: Callable  # (scale, seed, work) -> state
    run_pass: Callable  # (scale, seed, work, state) -> PassResult
    gate: Callable  # (outputs, pinned, state) -> failed count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ablation", ablation_setup, ablation_pass, lambda o, p, s: gate_report(o, p)),
        Workload("offline-cli", offline_cli_setup, offline_cli_pass, gate_cli),
        Workload("many-teachers", many_teachers_setup, many_teachers_pass,
                 lambda o, p, s: gate_report(o, p)),
    )
}
