"""Per-layer tracing of multikd from outside the program.

The traced run wraps the public functions of multikd's modules (its
layers) in the benchmark's own code; nothing in the program changes.
Every call becomes a span that knows its parent, so a layer's self
time is its duration minus the time its child spans cover. Spans stay
in memory and are reduced to the per-layer metrics when the run ends.

A wrapped function that no longer exists stops the run with
LayerMissing: a refactor that renames a layer function must not
report a silent zero for that layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from multikd import config as cfg
from multikd import trainer
from multikd.ensemble import TargetSet


class LayerMissing(RuntimeError):
    """A public function the trace wraps is gone from its module."""


def _file_mb(args: dict) -> dict:
    return {"mb": os.path.getsize(args["path"]) / 1e6}


def _fit_attrs(args: dict) -> dict:
    config = args["config"]
    n = len(args["features"])
    return {
        "strategy": args["target_set"].strategy,
        "steps": config.epochs * math.ceil(n / config.batch_size),
    }


def _build_attrs(args: dict) -> dict:
    bank = args["bank"]
    return {"teacher_rows": bank.n * bank.k}


def _cell_attrs(args: dict) -> dict:
    rc = args["rc"]
    return {"needs_teachers": rc.distill.strategy != cfg.NONE and not rc.teacher_paths}


# (layer, module, public function, attributes taken from the bound arguments
# once the call has returned). Composite readers and writers carry no size:
# the leaf calls they make are spans of their own.
TRACED = [
    ("datagen.gen", "multikd.datagen", "gen_dataset", None),
    ("trainer.teacher_fit", "multikd.harness", "train_plain", None),
    ("trainer.fit", "multikd.trainer", "train", _fit_attrs),
    ("trainer.eval", "multikd.trainer", "evaluate", None),
    ("ensemble.build", "multikd.ensemble", "build_targets", _build_attrs),
    ("formats.read", "multikd.formats", "load_all_views", None),
    ("formats.read", "multikd.formats", "load_dataset", _file_mb),
    ("formats.read", "multikd.formats", "load_logits", _file_mb),
    ("formats.read", "multikd.formats", "load_model", _file_mb),
    ("formats.read", "multikd.formats", "load_targets", _file_mb),
    ("formats.write", "multikd.formats", "write_all_views", None),
    ("formats.write", "multikd.formats", "write_dataset", _file_mb),
    ("formats.write", "multikd.formats", "write_logit_dump", _file_mb),
    ("formats.write", "multikd.formats", "write_model", _file_mb),
    ("formats.write", "multikd.formats", "write_targets", _file_mb),
    ("formats.write", "multikd.formats", "write_weights", _file_mb),
    ("harness.cell", "multikd.harness", "run_pipeline", _cell_attrs),
    ("cli.command", "multikd.cli", "main", None),
]

UNITS = {
    "datagen.gen_s": "s",
    "datagen.calls": "count",
    "trainer.teacher_fit_s": "s",
    "trainer.teacher_fits": "count",
    "harness.teacher_reuse_ratio": "ratio",
    "trainer.student_fit_s": "s",
    "trainer.steps": "count",
    "trainer.step_us": "us",
    "trainer.calls_per_step": "calls/step",
    "trainer.avg1_step_ratio": "ratio",
    "trainer.eval_s": "s",
    "ensemble.build_s": "s",
    "ensemble.us_per_teacher_row": "us",
    "formats.read_s": "s",
    "formats.read_mb": "MB",
    "formats.read_mb_per_s": "MB/s",
    "formats.write_s": "s",
    "formats.write_mb": "MB",
    "formats.write_mb_per_s": "MB/s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    layer: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def within(self, layer: str) -> "Span | None":
        """The nearest enclosing span of `layer`, if any."""
        span = self.parent
        while span is not None and span.layer != layer:
            span = span.parent
        return span


@dataclass
class StudentFit:
    """Arguments of a student `train` call, the model copied before it ran."""

    model: object
    features: object
    labels: object
    targets: TargetSet
    config: cfg.DistillConfig


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.fits: dict[str, StudentFit] = {}  # first student fit per strategy
        self.overhead_s = 0.0  # time spent in the wrappers' own bookkeeping
        self._stack: list[Span] = []

    @contextmanager
    def installed(self):
        """Wrap every TRACED function wherever a multikd module binds it."""
        replaced = []
        try:
            for layer, module, name, attrs in TRACED:
                mod = importlib.import_module(module)
                original = getattr(mod, name, None)
                if not callable(original):
                    raise LayerMissing(
                        f"{module}.{name} no longer exists; layer {layer!r} cannot be traced"
                    )
                wrapper = self._wrap(layer, original, attrs)
                for mod_name, bound in list(sys.modules.items()):
                    if mod_name != "multikd" and not mod_name.startswith("multikd."):
                        continue
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            setattr(bound, attr, wrapper)
                            replaced.append((bound, attr, original))
            yield self
        finally:
            for bound, attr, original in reversed(replaced):
                setattr(bound, attr, original)

    def _wrap(self, layer: str, fn, attrs):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if layer == "trainer.fit":
                self._capture_fit(signature.bind(*args, **kwargs).arguments)
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
            if attrs is not None:
                span.attrs = attrs(signature.bind(*args, **kwargs).arguments)
            self.overhead_s += (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    def _capture_fit(self, args: dict) -> None:
        if any(s.layer == "trainer.teacher_fit" for s in self._stack):
            return
        strategy = args["target_set"].strategy
        if strategy not in self.fits:
            self.fits[strategy] = StudentFit(
                args["model"].copy(), args["features"], args["labels"],
                args["target_set"], args["config"],
            )


def count_calls_per_step(fit: StudentFit) -> float:
    """Python plus C calls per SGD step, counted by a profile hook.

    Trains one epoch on the first 2m and on the first m batches of the
    captured fit; the difference over m steps cancels the fixed cost of
    a `train` call. The count is exact: it does not depend on timing.
    Call it with the tracer uninstalled, or the wrapper's calls count too.
    """
    bs = fit.config.batch_size
    m = max(1, min(16, len(fit.labels) // (2 * bs)))

    def count(steps: int) -> int:
        n = steps * bs
        targets = TargetSet(fit.targets.strategy, [t[:n] for t in fit.targets.targets])
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        model = fit.model.copy()
        sys.setprofile(hook)
        try:
            trainer.train(model, fit.features[:n], fit.labels[:n], targets, fit.config.with_(epochs=1))
        finally:
            sys.setprofile(None)
        return calls

    return (count(2 * m) - count(m)) / m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], calls_per_step: float, overhead_ratio: float) -> dict:
    """Reduce spans to the per-layer metrics; a layer that never ran reads 0."""

    def of(layer: str) -> list[Span]:
        return [s for s in spans if s.layer == layer]

    def seconds(items) -> float:
        return sum(s.seconds for s in items)

    def mb(items) -> float:
        return sum(s.attrs.get("mb", 0.0) for s in items)

    student = [s for s in of("trainer.fit") if s.within("trainer.teacher_fit") is None]
    student_s = seconds(student)
    steps = sum(s.attrs["steps"] for s in student)

    def step_us(strategy: str) -> float:
        fits = [s for s in student if s.attrs["strategy"] == strategy]
        return _ratio(seconds(fits) * 1e6, sum(s.attrs["steps"] for s in fits))

    cells = [s for s in of("harness.cell") if s.attrs.get("needs_teachers")]
    trained = {id(s.within("harness.cell")) for s in of("trainer.teacher_fit")}
    served = sum(1 for c in cells if id(c) not in trained)

    builds = of("ensemble.build")
    build_s = seconds(builds)

    # a composite reader or writer's leaf calls are spans of the same
    # layer; count only the outermost span of a layer as its busy time
    reads = of("formats.read")
    writes = of("formats.write")
    read_s = seconds(s for s in reads if s.within("formats.read") is None)
    write_s = seconds(s for s in writes if s.within("formats.write") is None)

    return {
        "datagen.gen_s": seconds(of("datagen.gen")),
        "datagen.calls": len(of("datagen.gen")),
        "trainer.teacher_fit_s": seconds(of("trainer.teacher_fit")),
        "trainer.teacher_fits": len(of("trainer.teacher_fit")),
        "harness.teacher_reuse_ratio": _ratio(served, len(cells)),
        "trainer.student_fit_s": student_s,
        "trainer.steps": steps,
        "trainer.step_us": _ratio(student_s * 1e6, steps),
        "trainer.calls_per_step": calls_per_step,
        "trainer.avg1_step_ratio": _ratio(step_us(cfg.AVG1), step_us(cfg.AVG2)),
        "trainer.eval_s": seconds(of("trainer.eval")),
        "ensemble.build_s": build_s,
        "ensemble.us_per_teacher_row": _ratio(
            build_s * 1e6, sum(s.attrs["teacher_rows"] for s in builds)
        ),
        "formats.read_s": read_s,
        "formats.read_mb": mb(reads),
        "formats.read_mb_per_s": _ratio(mb(reads), read_s),
        "formats.write_s": write_s,
        "formats.write_mb": mb(writes),
        "formats.write_mb_per_s": _ratio(mb(writes), write_s),
        "harness.self_s": sum(s.self_s for s in of("harness.cell")),
        "cli.self_s": sum(s.self_s for s in of("cli.command")),
        "trace.overhead_ratio": overhead_ratio,
    }
