"""Command line harness.

Subcommands: gen-data, train-teacher, dump-logits, assemble, distill,
evaluate, ablate, cost-probe. A `--config` file supplies `key = value`
defaults; explicit flags win. A flag's value is text, as a config
line's is, and both are converted alike, with one message for a bad
value. `main` binds every run once, before any subcommand does work: it
reads `--config`, merges the flags over it and builds the `RunConfig`,
so each subcommand rejects an unreadable config and a bad run-key
value, also one it does not use. Then, still before any work, every
subcommand refuses an `--out` that names no file or (but for
`gen-data`, which creates it) lies in a missing directory, a directory
at any file it would write at `--out` or at `--out` plus a suffix, a
`gen-data --out` that is no directory, and a missing required flag.
Exit codes: 0 success, 1 usage error (a `ValidationError`), 2
malformed input file, 3 numerical failure. `ablate` exits with the
code of its first failed cell in report order.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfg
from .datagen import DataParams
from .ensemble import _check_teacher_count, build_targets
from .errors import FormatError, MultiKdError, NumericalError, ValidationError
from .formats import (
    _check_teacher_id,
    load_dataset,
    load_model,
    parse_config_file,
    write_all_views,
    write_atomically,
    write_logit_dump,
    write_model,
    write_targets,
    write_weights,
)
from .harness import (
    RunConfig,
    bind_teacher_dumps,
    cost_probe,
    cost_probe_text,
    generate_data,
    report_machine_text,
    report_table_text,
    run_ablation,
    run_pipeline,
    train_plain,
)
from .trainer import evaluate, forward


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise ValidationError(message)


# Run keys that only `ablate` takes as flags; the config file takes them too.
_ABLATE_KEYS = ("seeds", "strategies")


def _add_run_keys(sub: argparse.ArgumentParser, ablate_only: bool) -> None:
    for row in cfg.RUN_KEYS:
        if (row.key in _ABLATE_KEYS) != ablate_only:
            continue
        # text, as a config line is: `_run_config` converts both alike
        sub.add_argument("--" + row.key.replace("_", "-"), action="append" if row.repeat else "store",
                         help=row.help)


def build_parser() -> _Parser:
    parser = _Parser(prog="multikd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value config file")
        _add_run_keys(sub, ablate_only=False)
        if name in ("train-teacher", "dump-logits", "evaluate"):
            sub.add_argument("--data", help="dataset file")
        if name == "dump-logits":
            sub.add_argument("--teacher-id", help="identifier stored in the dump header")
        if name in ("dump-logits", "evaluate"):
            sub.add_argument("--model", help="model file")
        if name == "assemble":
            sub.add_argument("--labels-from", help="dataset file supplying labels")
        if name == "ablate":
            _add_run_keys(sub, ablate_only=True)
            sub.add_argument("--timing", action="store_true",
                             help="record wall-times (report no longer byte-reproducible)")
    return parser


def _merged(args) -> dict:
    """Config-file values overridden by every flag given."""
    values: dict = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    values.update((key, value) for key, value in vars(args).items() if value is not None)
    return values


# A subcommand requires its own flags that are not run keys (argparse parses
# only the running one's, and sets a switch either way), and --out if it writes.
_NOT_INPUTS = {"command", "config", *(row.key for row in cfg.RUN_KEYS)}
_WRITERS = ("gen-data", "train-teacher", "dump-logits", "assemble")
# The suffix each subcommand appends to --out for each file it writes there;
# `assemble` also writes <out>.weights.txt for GTD and PKD, which weigh teachers.
_OUT_SUFFIXES = {"train-teacher": ("",), "dump-logits": ("",), "distill": ("",), "cost-probe": ("",),
                 "ablate": (".txt", ".tsv"), "assemble": (".targets.txt",)}


def _check_inputs(args, values: dict, rc: RunConfig) -> None:
    """Refuse a bad --out, then a missing input; `gen-data` creates its --out directory."""
    out = values.get("out")
    if out is not None:
        if "\0" in out:
            raise ValidationError(f"--out {out!r} holds a NUL byte")
        directory, name = ("", out) if args.command == "gen-data" else os.path.split(out)
        if not name:
            raise ValidationError(f"--out {out!r} names no file")
        if directory and not os.path.isdir(directory):
            raise ValidationError(f"no directory {directory!r} for --out")
        if args.command == "gen-data" and os.path.lexists(out) and not os.path.isdir(out):
            raise ValidationError(f"--out {out!r} is not a directory")
        suffixes = _OUT_SUFFIXES.get(args.command, ())
        if args.command == "assemble" and rc.distill.strategy in (cfg.GTD, cfg.PKD):
            suffixes += (".weights.txt",)
        for path in (out + suffix for suffix in suffixes):
            if os.path.isdir(path):
                raise ValidationError(f"--out {out!r} is a directory" if path == out
                                      else f"--out {out!r} writes {path!r}, which is a directory")
    inputs = [key for key in vars(args) if key not in _NOT_INPUTS]
    for key in (inputs + ["out"] if args.command in _WRITERS else inputs):
        if key not in values:
            raise ValidationError(f"missing required flag --{key.replace('_', '-')}")


def _run_config(values: dict) -> RunConfig:
    """The run `values` describe, each run key's text converted here, from a
    flag or a config line alike; a run key they lack keeps its field default."""
    fields: dict = {cfg.DistillConfig: {}, DataParams: {}}
    for row in cfg.RUN_KEYS:
        if row.owner is not None and row.key in values:
            raw = values[row.key]
            try:
                fields[row.owner][row.field] = row.kind(raw)
            except ValueError:
                raise ValidationError(f"bad value for {row.key}: {raw!r}") from None
    return RunConfig(
        distill=cfg.DistillConfig(**fields[cfg.DistillConfig]),
        data=DataParams(**fields[DataParams]),
        teacher_paths=list(values.get("teacher", [])),
        data_dir=values.get("data_dir"),
    )


def cmd_gen_data(values: dict, rc: RunConfig) -> int:
    written = write_all_views(values["out"], generate_data(rc))
    print(f"wrote {len(written)} dataset files to {values['out']}")
    return 0


def cmd_train_teacher(values: dict, rc: RunConfig) -> int:
    dataset = load_dataset(values["data"])
    model = train_plain(dataset, rc.distill, rc.seed)
    write_model(values["out"], model)
    acc = evaluate(model, dataset.features, dataset.labels)
    print(f"trained on {dataset.n} samples; train top-1 {acc:.4f}; model -> {values['out']}")
    return 0


def _model_and_data(values: dict):
    """--model and --data, loaded and checked to agree on the class count."""
    model = load_model(values["model"])
    dataset = load_dataset(values["data"])
    if dataset.n_classes != model.n_classes:
        raise ValidationError(f"dataset has {dataset.n_classes} classes, model has {model.n_classes}")
    return model, dataset


def cmd_dump_logits(values: dict, rc: RunConfig) -> int:
    try:  # a usage error, found before any file is read
        teacher_id = _check_teacher_id(values["teacher_id"])
    except FormatError as exc:
        raise ValidationError(str(exc)) from None
    model, dataset = _model_and_data(values)
    write_logit_dump(values["out"], teacher_id, forward(model, dataset.features))
    print(f"dumped {dataset.n}x{model.n_classes} logits for {teacher_id} -> {values['out']}")
    return 0


def cmd_assemble(values: dict, rc: RunConfig) -> int:
    if rc.distill.strategy == cfg.NONE:
        raise ValidationError("strategy NONE has no targets to assemble")
    if rc.distill.strategy == cfg.AVG1:
        raise ValidationError("assemble cannot write AVG1: a targets file cannot carry its entropy gap")
    if not rc.teacher_paths:
        raise ValidationError("assemble needs at least one --teacher dump")
    _check_teacher_count(rc.distill.strategy, len(rc.teacher_paths))
    dataset = load_dataset(values["labels_from"])
    bank = bind_teacher_dumps(rc.teacher_paths, dataset)
    targets = build_targets(bank, dataset.labels, rc.distill)
    out = values["out"]
    write_targets(f"{out}.targets.txt", rc.distill.strategy, rc.distill.tau, targets.targets[0])
    paths = [f"{out}.targets.txt"]
    if targets.weights is not None:
        write_weights(f"{out}.weights.txt", rc.distill.strategy, targets.weights)
        paths.append(f"{out}.weights.txt")
    print("wrote " + " and ".join(paths))
    return 0


def cmd_distill(values: dict, rc: RunConfig) -> int:
    row = run_pipeline(rc)
    out = values.get("out")
    if out:
        write_model(out, row.model)
    for teacher_id, acc in sorted(row.teacher_test_acc.items()):
        print(f"{teacher_id} test top-1 {acc:.4f}")
    print(f"strategy {row.strategy} tau {row.tau} seed {row.seed} test top-1 {row.top1:.4f}")
    return 0


def cmd_evaluate(values: dict, rc: RunConfig) -> int:
    model, dataset = _model_and_data(values)
    acc = evaluate(model, dataset.features, dataset.labels)
    print(f"top-1 {acc:.4f} on {dataset.n} samples ({dataset.split}/{dataset.modality})")
    return 0


def cmd_ablate(values: dict, rc: RunConfig) -> int:
    raw_seeds = values.get("seeds", "1,2,3,4,5")
    try:
        seeds = [int(tok) for tok in raw_seeds.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad value for seeds: {raw_seeds!r}") from None
    raw_strategies = values.get("strategies", ",".join(cfg.STRATEGIES))
    strategies = [tok.strip() for tok in raw_strategies.split(",") if tok.strip()]
    report = run_ablation(rc, strategies, seeds, timing=values["timing"])
    table = report_table_text(report)
    out = values.get("out")
    if out:
        with write_atomically(f"{out}.txt") as fh:
            fh.write(table)
        with write_atomically(f"{out}.tsv") as fh:
            fh.write(report_machine_text(report))
    sys.stdout.write(table)
    for tag, seed, exc in report.failures:
        print(f"error: {tag} seed {seed}: {exc}", file=sys.stderr)
    return _exit_code_for(report.failures[0][2]) if report.failures else 0


def cmd_cost_probe(values: dict, rc: RunConfig) -> int:
    probe = cost_probe(rc, epochs=rc.distill.epochs if "epochs" in values else 5)
    text = cost_probe_text(probe)
    out = values.get("out")
    if out:
        with write_atomically(out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


# Each subcommand's help and handler; `build_parser` and `main` both read it.
_COMMANDS = {
    "gen-data": ("write the six dataset views to --out directory", cmd_gen_data),
    "train-teacher": ("train a plain classifier on --data, write --out model", cmd_train_teacher),
    "dump-logits": ("run --model over --data and write a logit dump", cmd_dump_logits),
    "assemble": ("write assembled targets (and weights) for inspection", cmd_assemble),
    "distill": ("full pipeline for one strategy and seed", cmd_distill),
    "evaluate": ("top-1 accuracy of --model on --data", cmd_evaluate),
    "ablate": ("strategies x seeds grid; writes <out>.txt and <out>.tsv", cmd_ablate),
    "cost-probe": ("per-epoch wall-time and assembly-op comparison", cmd_cost_probe),
}


def _exit_code_for(exc: Exception) -> int:
    seen = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, NumericalError):
            return 3
        if isinstance(current, (FormatError, OSError)):
            return 2
        if isinstance(current, ValidationError):
            return 1
        current = current.__cause__
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = _merged(args)
        _, handler = _COMMANDS[args.command]
        rc = _run_config(values)
        _check_inputs(args, values, rc)
        return handler(values, rc)
    except (MultiKdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
