"""Command line harness.

Each subcommand is one `_COMMANDS` row: its help, its handler, the
flags it requires and the files it writes at `--out`. A `--config`
file supplies `key = value` defaults; explicit flags win. A flag's
value is text, as a config line's is, and both are converted alike,
with one message for a bad value. `main` binds every run once, before
any subcommand does work: it reads `--config`, merges the flags over
it, builds the `RunConfig` and converts and checks the grid keys
(`seeds`, `strategies`), so each subcommand rejects an unreadable
config and a bad run-key or grid-key value, also one it does not use.
Then, still before any work, every subcommand refuses an `--out` that
names no file or (but for `gen-data`, which creates it) lies in a
missing directory, a directory at any file it writes at `--out`, a
`gen-data --out` that is or lies under a file that is no directory,
and a missing required flag. A failure is one `error:` line and the
exit code its type declares in `errors.py`: 1 usage, 2 file, 3
numerical. numpy's warnings are off, as explicit checks refuse every
overflow. `ablate` lists failed cells in report order and exits with
the first one's code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import config as cfg
from .datagen import DataParams
from .ensemble import _check_teacher_count, build_targets
from .errors import FormatError, MultiKdError, ValidationError
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
    _cells,
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
# The help of each flag that is no run key; a subcommand requires those it takes.
_OWN_FLAGS = {"data": "dataset file", "teacher_id": "identifier stored in the dump header",
              "model": "model file", "labels_from": "dataset file supplying labels"}


def build_parser() -> _Parser:
    parser = _Parser(prog="multikd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help="key = value config file")
        # text, as a config line is: `_run_config` converts both alike
        flags = [(row.key, row.help, "append" if row.repeat else "store") for row in cfg.RUN_KEYS
                 if name == "ablate" or row.key not in _ABLATE_KEYS]
        flags += [(key, _OWN_FLAGS[key], "store") for key in command.requires if key in _OWN_FLAGS]
        for key, help_text, action in flags:
            sub.add_argument("--" + key.replace("_", "-"), action=action, help=help_text)
        if name == "ablate":
            sub.add_argument("--timing", action="store_true",
                             help="record wall-times (report no longer byte-reproducible)")
    return parser


def _merged(args) -> dict:
    """Config-file values overridden by every flag given."""
    values = {} if args.config is None else parse_config_file(args.config)
    values.update((key, value) for key, value in vars(args).items() if value is not None)
    return values


def _out_paths(command: str, out: str, rc: RunConfig) -> list[str]:
    """The files `command` writes at `out`; `assemble` also writes weights for GTD and PKD."""
    suffixes = _COMMANDS[command].writes
    if command == "assemble" and rc.distill.strategy in (cfg.GTD, cfg.PKD):
        suffixes += (".weights.txt",)
    return [out + suffix for suffix in suffixes]


def _check_inputs(command: str, values: dict, rc: RunConfig) -> None:
    """Refuse a bad --out, then a missing input; `gen-data` creates its --out directory."""
    out = values.get("out")
    if out is not None:
        if "\0" in out:
            raise ValidationError(f"--out {out!r} holds a NUL byte")
        directory, name = ("", out) if command == "gen-data" else os.path.split(out)
        if not name:
            raise ValidationError(f"--out {out!r} names no file")
        if directory and not os.path.isdir(directory):
            raise ValidationError(f"no directory {directory!r} for --out")
        if command == "gen-data":  # the nearest path that exists must be a directory
            found = out
            while not os.path.lexists(found) and os.path.dirname(found) not in ("", found):
                found = os.path.dirname(found)
            if os.path.lexists(found) and not os.path.isdir(found):
                raise ValidationError(f"--out {out!r} is not a directory" if found == out
                                      else f"--out {out!r} lies under {found!r}, which is not a directory")
        for path in _out_paths(command, out, rc):
            if os.path.isdir(path):
                raise ValidationError(f"--out {out!r} is a directory" if path == out
                                      else f"--out {out!r} writes {path!r}, which is a directory")
    for key in _COMMANDS[command].requires:
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


def _convert_grid(values: dict, rc: RunConfig) -> None:
    """Convert the grid keys of `values` in place, from a flag or a config line
    alike: `seeds` to ints and `strategies` to tags, each `ablate`'s default when
    absent. Then refuse the grid as `run_ablation` would, whatever the subcommand."""
    raw = values.get("seeds", "1,2,3,4,5")
    try:
        values["seeds"] = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad value for seeds: {raw!r}") from None
    raw = values.get("strategies", ",".join(cfg.STRATEGIES))
    values["strategies"] = [tok.strip() for tok in raw.split(",") if tok.strip()]
    _cells(rc, values["strategies"], values["seeds"])


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
    if not rc.teacher_paths:
        raise ValidationError("assemble needs at least one --teacher dump")
    _check_teacher_count(rc.distill.strategy, len(rc.teacher_paths))
    dataset = load_dataset(values["labels_from"])
    bank = bind_teacher_dumps(rc.teacher_paths, dataset)
    targets = build_targets(bank, dataset.labels, rc.distill)
    paths = _out_paths("assemble", values["out"], rc)
    write_targets(paths[0], rc.distill.strategy, rc.distill.tau, targets.targets[0])
    if targets.weights is not None:
        write_weights(paths[1], rc.distill.strategy, targets.weights)
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
    report = run_ablation(rc, values["strategies"], values["seeds"], timing=values["timing"])
    table = report_table_text(report)
    out = values.get("out")
    if out:
        for path, text in zip(_out_paths("ablate", out, rc), (table, report_machine_text(report))):
            with write_atomically(path) as fh:
                fh.write(text)
    sys.stdout.write(table)
    for tag, seed, exc in report.failures:
        print(f"error: {tag} seed {seed}: {exc}", file=sys.stderr)
    return report.failures[0][2].exit_code if report.failures else 0


def cmd_cost_probe(values: dict, rc: RunConfig) -> int:
    probe = cost_probe(rc, epochs=rc.distill.epochs if "epochs" in values else 5)
    text = cost_probe_text(probe)
    out = values.get("out")
    if out:
        with write_atomically(out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


# The one declaration of each subcommand: its help, its handler, the flags it requires
# (its own in parser order, then `out` if it must write) and the suffix of each file it
# writes at --out; `gen-data` writes into a directory there instead.
class _Command(NamedTuple):
    help: str
    handler: Callable[[dict, RunConfig], int]
    requires: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


_COMMANDS = {
    "gen-data": _Command("write the six dataset views to --out directory", cmd_gen_data, ("out",)),
    "train-teacher": _Command("train a plain classifier on --data, write --out model", cmd_train_teacher,
                              ("data", "out"), ("",)),
    "dump-logits": _Command("run --model over --data and write a logit dump", cmd_dump_logits,
                            ("data", "teacher_id", "model", "out"), ("",)),
    "assemble": _Command("write assembled targets (and weights) for inspection", cmd_assemble,
                         ("labels_from", "out"), (".targets.txt",)),
    "distill": _Command("full pipeline for one strategy and seed", cmd_distill, writes=("",)),
    "evaluate": _Command("top-1 accuracy of --model on --data", cmd_evaluate, ("data", "model")),
    "ablate": _Command("strategies x seeds grid; writes <out>.txt and <out>.tsv", cmd_ablate,
                       writes=(".txt", ".tsv")),
    "cost-probe": _Command("per-epoch wall-time and assembly-op comparison", cmd_cost_probe, writes=("",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = _merged(args)
        rc = _run_config(values)
        _convert_grid(values, rc)
        _check_inputs(args.command, values, rc)
        with np.errstate(all="ignore"):  # every overflow is refused by an explicit check
            return _COMMANDS[args.command].handler(values, rc)
    except (MultiKdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", FormatError.exit_code)  # an OSError is a file failure


if __name__ == "__main__":
    sys.exit(main())
