"""End-to-end pipelines: data, teachers, assembly, student, reports.

A pipeline run is fully determined by one 64-bit seed: stage seeds are
derived here, and only here, as splitmix64(seed + stage index), with
stage 0 the data, 1 and 2 the two teachers, and 3 the student. A
student (teachers are students trained on labels alone) draws its
initial weights from splitmix64(stage seed + 0) and its batch order
from splitmix64(stage seed + 1). Teacher knowledge enters student
training only as assembled target matrices: the student loop reads the
assembled matrix and never a teacher, and no teacher model outlives its
fit: a teacher is its logits. Adding teachers changes the one-shot
assembly cost, never the per-epoch training work.
Every strategy's targets are one N x C matrix, so AVG1, like AVG2,
holds O(N*C) at any number of teachers. A run's cells share work in a
cache keyed by what determines it, the mean AVG1 and AVG2 share by bank.
A run's in-process teachers, over all its seeds, are fit together at
its first teacher need, in one lockstep train_plain call, with the bits
of each fit alone; if that call fails, each teacher is fit alone, as a
run without the group would, so failures and warnings do not change.

Reports are written both as an aligned text table and as one
tab-separated row per (strategy, seed). Without the opt-in timing mode
all report content is a pure function of (config, seeds) and the files
are byte-identical across runs; with timing enabled the epoch-seconds
column holds wall-clock measurements and that guarantee is waived.
This module is the only one that reads a clock: run_pipeline times the
student fit, and cost_probe each epoch it trains.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import config as cfg
from .datagen import MODALITY_A, MODALITY_B, DataParams, Dataset, SyntheticData, gen_dataset
from .ensemble import TargetSet, TeacherBank, build_targets
from .errors import StageError, ValidationError
from .formats import fmt_float, load_all_views, load_logits
from .rng import SplitMix64, derive_seed
from .trainer import StudentModel, _lockstep_plain, evaluate, forward, init_student, train

STAGE_DATA = 0
STAGE_TEACHER_A = 1
STAGE_TEACHER_B = 2
STAGE_STUDENT = 3

# The in-process teachers in bank order: (id, stage index, the clean
# modality it trains and is tested on). KD_SINGLE uses the first (_roster).
_TEACHERS = (
    ("teacher-A", STAGE_TEACHER_A, MODALITY_A),
    ("teacher-B", STAGE_TEACHER_B, MODALITY_B),
)


@dataclass
class RunConfig:
    """A DistillConfig plus data parameters and file bindings."""

    distill: cfg.DistillConfig = field(default_factory=cfg.DistillConfig)
    data: DataParams = field(default_factory=DataParams)
    teacher_paths: list[str] = field(default_factory=list)
    data_dir: str | None = None

    @property
    def seed(self) -> int:
        return self.distill.seed

    def with_strategy_seed(self, strategy: str, seed: int) -> "RunConfig":
        return replace(self, distill=self.distill.with_(strategy=strategy, seed=seed))


@dataclass
class PipelineRow:
    strategy: str
    tau: float
    seed: int
    top1: float
    epoch_seconds: float | None
    model: StudentModel
    teacher_test_acc: dict[str, float]


@dataclass
class AblationReport:
    rows: list[PipelineRow]
    failures: list[tuple[str, int, StageError]] = field(default_factory=list)

    def mean_top1(self, strategy: str) -> float:
        vals = [r.top1 for r in self.rows if r.strategy == strategy]
        if not vals:
            raise ValidationError(f"no rows for strategy {strategy}")
        return float(np.mean(vals))


def _fresh_student(dataset: Dataset, config: cfg.DistillConfig, stage_seed: int):
    """A new student for `dataset`, and `config` re-seeded for its batch order."""
    prng = SplitMix64(derive_seed(stage_seed, 0))
    model = init_student(dataset.dim, config.hidden_dim, dataset.n_classes, prng)
    return model, config.with_(seed=derive_seed(stage_seed, 1))


def train_plain(
    dataset: Dataset | Sequence[Dataset], config: cfg.DistillConfig, stage_seed: int | Sequence[int]
) -> StudentModel | list[StudentModel]:
    """A fresh student fit on `dataset`'s labels alone (NONE), seeded by `stage_seed`.

    Given a sequence of datasets and one stage seed each, it returns
    their models in order, each with the bits that fitting it alone
    gives. Two or more are fit in one lockstep loop
    (trainer._lockstep_plain): they must share one shape, and a member
    that fitting alone would fail makes the whole call raise. One is fit
    by train, whose products dispatch faster than a one-slice matmul.
    """
    plain = config.with_(strategy=cfg.NONE)
    if isinstance(dataset, Dataset):
        return _fit_alone(dataset, plain, stage_seed)
    datasets, stage_seeds = list(dataset), list(stage_seed)
    if len(datasets) != len(stage_seeds):
        raise ValidationError("train_plain needs one stage seed per dataset")
    if len(datasets) == 1:
        return [_fit_alone(datasets[0], plain, stage_seeds[0])]
    fresh = [_fresh_student(d, plain, s) for d, s in zip(datasets, stage_seeds)]
    models = [model for model, _ in fresh]
    _lockstep_plain(models, [d.features for d in datasets], [d.labels for d in datasets], plain,
                    [member.seed for _, member in fresh])
    return models


def _fit_alone(dataset: Dataset, plain: cfg.DistillConfig, stage_seed: int) -> StudentModel:
    model, plain = _fresh_student(dataset, plain, stage_seed)
    train(model, dataset.features, dataset.labels, TargetSet(cfg.NONE), plain)
    return model


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _cached(caches: dict | None, key: tuple, make, *args):
    """make(*args), shared across the cells of one run through `caches`.

    A call that raises stores nothing, so a bad input fails every cell
    alike, each with the same message.
    """
    if caches is None:
        return make(*args)
    if key not in caches:
        caches[key] = make(*args)
    return caches[key]


def generate_data(rc: RunConfig) -> SyntheticData:
    """The six views `rc` generates: its data parameters at its data stage seed."""
    return gen_dataset(derive_seed(rc.seed, STAGE_DATA), rc.data)


def _obtain_data(rc: RunConfig, caches: dict | None) -> SyntheticData:
    if rc.data_dir is not None:
        return _cached(caches, ("views", rc.data_dir), load_all_views, rc.data_dir)
    return _cached(caches, ("data", rc.seed), generate_data, rc)


def bind_teacher_dumps(paths: list[str], data: Dataset, caches: dict | None = None) -> TeacherBank:
    """The teacher dumps at `paths` as a bank whose row n is sample n of `data`.

    Each dump is checked against `data` before the bank is built, so a
    dump of the wrong shape is named whichever place it holds. Through
    `caches` each file is parsed once, and each bank built and checked
    once per (paths, data shape), however many cells bind it.
    """

    def bank() -> TeacherBank:
        dumps = [_cached(caches, ("dump", path), load_logits, path) for path in paths]
        for dump in dumps:
            if dump.rows.shape != (data.n, data.n_classes):
                n, c = dump.rows.shape
                raise ValidationError(
                    f"teacher dump {dump.teacher_id!r} is {n}x{c}, "
                    f"training data needs {data.n}x{data.n_classes}"
                )
        return TeacherBank([d.rows for d in dumps], [d.teacher_id for d in dumps])

    return _cached(caches, ("bank", tuple(paths), data.n, data.n_classes), bank)


def _roster(strategy: str, teachers):
    """The teachers a strategy distills from: KD_SINGLE the first alone, any other all."""
    return teachers[:1] if strategy == cfg.KD_SINGLE else teachers


def _fit_teacher(rc: RunConfig, data: SyntheticData, stage: int, modality: str):
    """A teacher fit, as its logits on its clean train view and top-1 on its clean test view."""
    model = train_plain(data.view("train", modality), rc.distill, derive_seed(rc.seed, stage))
    return _teacher_record(model, data, modality)


def _teacher_record(model: StudentModel, data: SyntheticData, modality: str):
    train_view, test_view = data.view("train", modality), data.view("test", modality)
    return forward(model, train_view.features), evaluate(model, test_view.features, test_view.labels)


_PLAN = ("teacher-plan",)  # the caches key of a run's planned in-process teachers


def _plan_teachers(caches: dict, cells: list[RunConfig]) -> None:
    """Record the in-process teachers the cells need: the union of their rosters.

    Each is a run config and a _TEACHERS entry, (rc, id, stage,
    modality), in ascending seed and then stage order;
    _fit_planned_teachers fits them at the first need.
    """
    needed = {}
    for rc in cells:
        if rc.distill.strategy != cfg.NONE and not rc.teacher_paths:
            for teacher_id, stage, modality in _roster(rc.distill.strategy, _TEACHERS):
                needed.setdefault((rc.seed, stage), (rc, teacher_id, stage, modality))
    caches[_PLAN] = [needed[key] for key in sorted(needed)]


def _fit_planned_teachers(rc: RunConfig, data: SyntheticData, caches: dict) -> None:
    """Fit the run's planned teachers that are not cached yet, in one train_plain call.

    A run without a plan plans the cell's own roster. The plan is
    consumed: whatever happens, no later cell fits a group. The group
    fit runs with every floating-point condition the caller would hear
    of raised, and the rest ignored; if anything raises (a member that
    fitting alone would fail, or a warning), nothing is cached, and
    each teacher is then fit alone by _fit_teacher, so it fails or warns
    as fitting it alone does. A member of the cell's seed fits on
    `data`; any other gets its seed's data through `caches`.
    """
    if _PLAN not in caches:
        _plan_teachers(caches, [rc])
    group = [entry for entry in caches[_PLAN] if ("teacher", entry[0].seed, entry[1]) not in caches]
    caches[_PLAN] = []
    if not group:
        return
    raised = {kind: "ignore" if mode == "ignore" else "raise" for kind, mode in np.geterr().items()}
    try:
        with np.errstate(**raised):
            datas = [data if member.seed == rc.seed else _obtain_data(member, caches) for member, *_ in group]
            models = train_plain([d.view("train", modality) for d, (*_, modality) in zip(datas, group)],
                                 rc.distill, [derive_seed(member.seed, stage) for member, _, stage, _ in group])
            records = {("teacher", member.seed, teacher_id): _teacher_record(model, d, modality)
                       for (member, teacher_id, _, modality), model, d in zip(group, models, datas)}
    except Exception:  # the fallback refits each teacher alone
        return
    caches.update(records)


def _obtain_teacher_logits(
    rc: RunConfig, data: SyntheticData, caches: dict | None
) -> tuple[TeacherBank | None, dict[str, float]]:
    """Teacher logits on the training samples as a bank, and teacher test accuracy.

    NONE has no teachers and binds none. Otherwise the strategy's
    `_roster` is taken from the dumps given in the run config, which
    win, or from `_TEACHERS`, which are trained in-process, seeded by
    their stage index so retraining is bit-exact. Only the roster's dumps
    are read: KD_SINGLE binds the first alone. Through `caches`, from
    either source, each teacher is fit or read once per run, and each
    roster's bank built once per run, so every cell of a roster gets the
    same bank object. In-process teachers are fit by
    _fit_planned_teachers first, and alone only if that fails.
    """
    strategy = rc.distill.strategy
    if strategy == cfg.NONE:
        return None, {}
    if rc.teacher_paths:
        return bind_teacher_dumps(_roster(strategy, rc.teacher_paths), data.train_dark, caches), {}
    caches = {} if caches is None else caches
    _fit_planned_teachers(rc, data, caches)
    roster = _roster(strategy, _TEACHERS)
    ids = tuple(teacher_id for teacher_id, _, _ in roster)
    fits = [_cached(caches, ("teacher", rc.seed, teacher_id), _fit_teacher, rc, data, stage, modality)
            for teacher_id, stage, modality in roster]
    bank = _cached(caches, ("roster", rc.seed, ids), TeacherBank, [logits for logits, _ in fits], ids)
    return bank, {teacher_id: top1 for teacher_id, (_, top1) in zip(ids, fits)}


def _cell_targets(bank: TeacherBank | None, labels, config: cfg.DistillConfig, caches: dict | None) -> TargetSet:
    """The student's targets: none for NONE, else the strategy's assembly of `bank`.

    AVG1 and AVG2 distill one matrix, the bank's unweighted mean at tau,
    so through `caches`, keyed by the bank itself, it is built once per
    bank and tau, and each cell wraps it under its own tag to train its
    own student. A build that raises stores nothing, so each cell fails
    with its own tag. KD_SINGLE, GTD and PKD build their own targets.
    """
    if config.strategy == cfg.NONE:
        return TargetSet(cfg.NONE)
    if config.strategy not in (cfg.AVG1, cfg.AVG2):
        return build_targets(bank, labels, config)
    mean = _cached(caches, ("mean", bank, config.tau), build_targets, bank, labels, config).targets[0]
    mean.flags.writeable = False  # shared: no cell may write into another's target
    return TargetSet(config.strategy, [mean])


def run_pipeline(rc: RunConfig, timing: bool = False, caches: dict | None = None) -> PipelineRow:
    """One (strategy, seed) cell: data -> teachers -> targets -> student."""
    data = _stage("generate-data", _obtain_data, rc, caches)
    bank, teacher_accs = _stage("teachers", _obtain_teacher_logits, rc, data, caches)
    view = data.train_dark
    targets = _stage("assemble-targets", _cell_targets, bank, view.labels, rc.distill, caches)

    def _student():
        model, config = _fresh_student(view, rc.distill, derive_seed(rc.seed, STAGE_STUDENT))
        train(model, view.features, view.labels, targets, config)
        return model

    started = time.perf_counter()
    model = _stage("train-student", _student)
    fit_seconds = time.perf_counter() - started
    top1 = _stage("evaluate", evaluate, model, data.test_dark.features, data.test_dark.labels)
    return PipelineRow(
        strategy=rc.distill.strategy,
        tau=rc.distill.tau,
        seed=rc.seed,
        top1=top1,
        epoch_seconds=fit_seconds / rc.distill.epochs if timing and rc.distill.epochs else None,
        model=model,
        teacher_test_acc=teacher_accs,
    )


def _cells(base: RunConfig, strategies: list[str], seeds: list[int]) -> list:
    """The (strategy, seed, run config) cells of a grid, in report order.

    Every check of the grid runs here, before any cell does: an empty
    grid, an unknown strategy, a strategy or seed given twice, and each
    cell's config, built and so checked.
    """
    if not strategies or not seeds:
        raise ValidationError("need at least one strategy and one seed")
    for tag in strategies:
        if tag not in cfg.STRATEGIES:
            raise ValidationError(f"unknown strategy {tag!r}")
    for kind, values in (("strategy", strategies), ("seed", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValidationError(f"{kind} {value!r} is given twice")
    return [(tag, seed, base.with_strategy_seed(tag, seed))
            for tag in cfg.STRATEGIES if tag in strategies for seed in sorted(seeds)]


def run_ablation(
    base: RunConfig,
    strategies: list[str],
    seeds: list[int],
    timing: bool = False,
) -> AblationReport:
    """Cross-product of strategies and seeds, run in report order: that of
    cfg.STRATEGIES, then ascending seed, which rows and failures follow.

    Per-seed data, teacher logits and roster banks are made once per
    run; the in-process teachers of every seed are fit together, at the
    first cell that needs one (_fit_planned_teachers), so a seed's data
    can be made then too. AVG1 and AVG2 share each bank's unweighted
    mean at tau (the means are freed when the first GTD or PKD cell
    starts); the cache
    only reuses values that deterministic retraining would reproduce
    bit-exactly, so reports do not depend on cell order.
    Teacher dumps (`base.teacher_paths`) and `base.data_dir` views are
    read once per ablation, on first use, and shared by every cell; a
    file edited while the ablation runs is not seen by it. A cell binds
    only the dumps its strategy distills from, as one bank shared by
    every cell with the same dumps and data shape. A load or shape
    check that fails is not cached, so it fails every such cell alike.
    Failed cells are recorded and the report still covers the rest. A
    strategy or seed named twice is refused, since it would run its
    cells twice and count them twice in `mean_top1`.
    """
    cells = _cells(base, strategies, seeds)
    caches: dict = {}
    _plan_teachers(caches, [rc for _, _, rc in cells])
    report = AblationReport(rows=[])
    for tag, seed, rc in cells:
        if tag in (cfg.GTD, cfg.PKD):
            # report order runs every KD_SINGLE, AVG1 and AVG2 cell first,
            # so no later cell reads a cached mean: free them all
            for key in [key for key in caches if key[0] == "mean"]:
                del caches[key]
        try:
            report.rows.append(run_pipeline(rc, timing=timing, caches=caches))
        except StageError as exc:  # cell isolation: report partial results
            report.failures.append((tag, seed, exc))
    return report


# ---------------------------------------------------------------------------
# report rendering


def _fmt_seconds(value: float | None) -> str:
    return "NA" if value is None else fmt_float(value)


def report_machine_text(report: AblationReport) -> str:
    lines = ["#report v1"]
    for r in report.rows:
        lines.append(
            "\t".join(
                [r.strategy, fmt_float(r.tau), str(r.seed), fmt_float(r.top1), _fmt_seconds(r.epoch_seconds)]
            )
        )
    for tag, seed, exc in report.failures:
        lines.append("\t".join([tag, "-", str(seed), "FAILED", str(exc).replace("\t", " ")]))
    return "\n".join(lines) + "\n"


def report_table_text(report: AblationReport) -> str:
    """Aligned per-strategy summary, in report order: mean top-1 plus the per-seed values.

    A run has one tau: its cells change only the strategy and the seed.
    """
    groups: dict[str, list[PipelineRow]] = {}
    for r in report.rows:
        groups.setdefault(r.strategy, []).append(r)
    header = ["strategy", "tau", "mean_top1", "per_seed_top1", "epoch_seconds"]
    body = []
    for tag, rows in groups.items():
        per_seed = ",".join(f"{r.seed}:{r.top1:.4f}" for r in rows)
        secs = [r.epoch_seconds for r in rows if r.epoch_seconds is not None]
        body.append([tag, fmt_float(rows[0].tau), f"{report.mean_top1(tag):.4f}", per_seed,
                     _fmt_seconds(float(np.mean(secs)) if secs else None)])
    for tag, seed, _ in report.failures:
        body.append([tag, "-", "FAILED", f"seed {seed}", "-"])
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cost probe


@dataclass
class CostProbe:
    epochs: int
    per_epoch_seconds: dict[str, float]
    pkd_kd_ratio: float
    assembly_flops: dict[str, int]
    peak_rss_kb: int | None


def assembly_flop_estimate(n: int, k: int, c: int) -> int:
    """Floating-op count of one-shot weighting plus assembly.

    Per (sample, teacher): softened distribution for weighting (~4C),
    cross-entropy against the reference (~3C), normalization (~2), and
    the weighted sum at assembly temperature (~6C). The count depends
    only on (N, K, C); training epochs never enter.
    """
    per_pair = 4 * c + 3 * c + 6 * c
    return n * k * (per_pair + 2)


def cost_probe(rc: RunConfig, repeats: int = 3) -> CostProbe:
    """Compare per-epoch training wall-time across NONE, KD_SINGLE, PKD.

    All three strategies train on identical data with the same seed and
    the same single-target loss shape, so the only cost difference KD
    could introduce is the one-shot assembly before epoch 0. Timing is
    a measurement, so it is made sturdy against scheduler noise and
    machine speed drift: the three students train one epoch at a time,
    interleaved, with the KD/PKD order alternating from epoch to epoch,
    so the two epochs of a KD/PKD pair run back to back. The first
    epoch of every repeat is warmup and is dropped. A strategy's
    per-epoch time is a low quantile of its epochs, and the reported
    ratio is the median of the paired per-epoch ratios. Assembly flop
    counts are analytic and depend only on matrix sizes, never on
    epochs. Each repeat times `rc.distill.epochs` epochs.
    """
    epochs = rc.distill.epochs
    if epochs < 2:
        raise ValidationError("cost probe needs at least 2 epochs (first is warmup)")
    if repeats < 1:
        raise ValidationError("cost probe needs at least one repeat")
    caches: dict = {}
    data = _obtain_data(rc, caches)
    view = data.train_dark
    tags = (cfg.NONE, cfg.KD_SINGLE, cfg.PKD)
    cells = [replace(rc, distill=rc.distill.with_(strategy=tag)) for tag in tags]
    _plan_teachers(caches, cells)
    configs, targets, flops = {}, {}, {}
    for tag, cell in zip(tags, cells):
        bank, _ = _obtain_teacher_logits(cell, data, caches)
        configs[tag] = cell.distill.with_(epochs=1)
        targets[tag] = _cell_targets(bank, view.labels, cell.distill, caches)
        flops[tag] = assembly_flop_estimate(view.n, 0 if tag == cfg.NONE else bank.k, view.n_classes)

    stage_seed = derive_seed(rc.seed, STAGE_STUDENT)

    def timed_epoch(tag: str, model: StudentModel, config: cfg.DistillConfig) -> float:
        started = time.perf_counter()
        train(model, view.features, view.labels, targets[tag], config)
        return time.perf_counter() - started

    times = {tag: [] for tag in tags}
    ratios = []
    for rep in range(repeats):
        students = {tag: _fresh_student(view, configs[tag], stage_seed) for tag in tags}
        for epoch in range(epochs):
            order = tags if (rep + epoch) % 2 == 0 else (cfg.NONE, cfg.PKD, cfg.KD_SINGLE)
            seconds = {tag: timed_epoch(tag, *students[tag]) for tag in order}
            if epoch == 0:
                continue
            for tag in tags:
                times[tag].append(seconds[tag])
            ratios.append(seconds[cfg.PKD] / seconds[cfg.KD_SINGLE])
    # low quantile: scheduler spikes only fatten the right tail, the
    # floor is the honest per-epoch cost
    per_epoch = {tag: float(np.quantile(vals, 0.25)) for tag, vals in times.items()}
    peak = _peak_rss_kb()
    return CostProbe(
        epochs=epochs,
        per_epoch_seconds=per_epoch,
        pkd_kd_ratio=float(np.median(ratios)),
        assembly_flops=flops,
        peak_rss_kb=peak,
    )


def _peak_rss_kb() -> int | None:
    """This process's peak RSS in kB: `ru_maxrss`, which macOS reports in bytes."""
    try:
        import resource

        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None
    return peak // 1024 if sys.platform == "darwin" else peak


def cost_probe_text(probe: CostProbe) -> str:
    lines = [f"epochs timed: {probe.epochs} (first excluded as warmup)"]
    for tag in (cfg.NONE, cfg.KD_SINGLE, cfg.PKD):
        lines.append(
            f"{tag:10s} per-epoch {probe.per_epoch_seconds[tag]:.6f}s  "
            f"assembly-flops {probe.assembly_flops[tag]}"
        )
    lines.append(f"PKD / KD_SINGLE per-epoch ratio: {probe.pkd_kd_ratio:.3f}")
    if probe.peak_rss_kb is not None:
        lines.append(f"peak RSS: {probe.peak_rss_kb} kB (best effort)")
    return "\n".join(lines) + "\n"
