"""Command line harness.

Subcommands: gen-data, train-teacher, dump-logits, assemble, distill,
evaluate, ablate, cost-probe. A `--config` file supplies `key = value`
defaults; explicit flags win. Exit codes: 0 success, 1 usage error,
2 malformed input file, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import config as cfg
from .datagen import DataParams, gen_dataset
from .ensemble import TeacherBank, build_targets
from .errors import FormatError, MultiKdError, NumericalError, ValidationError
from .formats import (
    load_dataset,
    load_logits,
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
    STAGE_DATA,
    RunConfig,
    cost_probe,
    cost_probe_text,
    report_machine_text,
    report_table_text,
    run_ablation,
    run_pipeline,
    train_plain,
)
from .rng import derive_seed
from .trainer import evaluate, forward


class UsageError(MultiKdError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--seed", type=int, help="64-bit unsigned run seed")
    sub.add_argument("--strategy", help="NONE|KD_SINGLE|AVG1|AVG2|GTD|PKD")
    sub.add_argument("--tau", type=float, help="distillation temperature")
    sub.add_argument("--alpha", type=float, help="cross-entropy mixing weight")
    sub.add_argument("--h", type=float, help="true-class mass of the preferred reference")
    sub.add_argument("--gamma", type=float, help="gamma-correction exponent")
    sub.add_argument("--weight-tau", type=float, help="temperature for teacher weighting")
    sub.add_argument("--lr", type=float, help="SGD learning rate")
    sub.add_argument("--epochs", type=int, help="training epochs")
    sub.add_argument("--batch-size", type=int, help="SGD batch size")
    sub.add_argument("--hidden-dim", type=int, help="student hidden width")
    sub.add_argument("--n-train", type=int, help="training samples")
    sub.add_argument("--n-test", type=int, help="test samples")
    sub.add_argument("--classes", type=int, help="class count")
    sub.add_argument("--dim", type=int, help="total feature dims (two halves)")
    sub.add_argument("--noise", type=float, help="sample noise scale")
    sub.add_argument("--dark-factor", type=float, help="darkening dim factor")
    sub.add_argument("--quant-levels", type=int, help="darkening quantization levels")
    sub.add_argument("--teacher", action="append", default=None,
                     help="teacher logit dump (repeatable; order defines k)")
    sub.add_argument("--data-dir", help="directory of gen-data output to reuse")
    sub.add_argument("--out", help="output path or prefix")


def build_parser() -> _Parser:
    parser = _Parser(prog="multikd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("gen-data", "write the six dataset views to --out directory"),
        ("train-teacher", "train a plain classifier on --data, write --out model"),
        ("dump-logits", "run --model over --data and write a logit dump"),
        ("assemble", "write assembled targets (and weights) for inspection"),
        ("distill", "full pipeline for one strategy and seed"),
        ("evaluate", "top-1 accuracy of --model on --data"),
        ("ablate", "strategies x seeds grid; writes <out>.txt and <out>.tsv"),
        ("cost-probe", "per-epoch wall-time and assembly-op comparison"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name in ("train-teacher", "dump-logits", "evaluate"):
            sub.add_argument("--data", help="dataset file")
        if name == "dump-logits":
            sub.add_argument("--teacher-id", help="identifier stored in the dump header")
        if name in ("dump-logits", "evaluate"):
            sub.add_argument("--model", help="model file")
        if name == "assemble":
            sub.add_argument("--labels-from", help="dataset file supplying labels")
        if name == "ablate":
            sub.add_argument("--seeds", help="comma-separated seed list")
            sub.add_argument("--strategies", help="comma-separated strategy list")
            sub.add_argument("--timing", action="store_true",
                             help="record wall-times (report no longer byte-reproducible)")
    return parser


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required flag {flag}")
    return value


def _merged(args) -> dict:
    """Config-file values overridden by explicit flags."""
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    flag_map = {
        "seed": args.seed,
        "strategy": args.strategy,
        "tau": args.tau,
        "alpha": args.alpha,
        "h": args.h,
        "gamma": args.gamma,
        "weight_tau": args.weight_tau,
        "lr": args.lr,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "hidden_dim": args.hidden_dim,
        "n_train": args.n_train,
        "n_test": args.n_test,
        "classes": args.classes,
        "dim": args.dim,
        "noise": args.noise,
        "dark_factor": args.dark_factor,
        "quant_levels": args.quant_levels,
        "data_dir": args.data_dir,
        "out": args.out,
    }
    for key, value in flag_map.items():
        if value is not None:
            values[key] = value
    if args.teacher:
        values["teacher"] = list(args.teacher)
    return values


def _coerce(values: dict, key: str, kind, default):
    if key not in values:
        return default
    raw = values[key]
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise UsageError(f"bad value for {key}: {raw!r}") from None


def _run_config(values: dict) -> RunConfig:
    try:
        distill = cfg.DistillConfig(
            strategy=str(values.get("strategy", cfg.PKD)),
            alpha=_coerce(values, "alpha", float, 0.5),
            tau=_coerce(values, "tau", float, cfg.TAU_DESK_DEFAULT),
            h=_coerce(values, "h", float, 0.99),
            weight_tau=_coerce(values, "weight_tau", float, 1.0),
            gamma=_coerce(values, "gamma", float, 3.0),
            lr=_coerce(values, "lr", float, 0.1),
            epochs=_coerce(values, "epochs", int, 30),
            batch_size=_coerce(values, "batch_size", int, 4),
            seed=_coerce(values, "seed", int, 0),
            hidden_dim=_coerce(values, "hidden_dim", int, 32),
        )
        data = DataParams(
            n_train=_coerce(values, "n_train", int, 2000),
            n_test=_coerce(values, "n_test", int, 1000),
            n_classes=_coerce(values, "classes", int, 11),
            dim=_coerce(values, "dim", int, 20),
            noise=_coerce(values, "noise", float, 0.15),
            dark_factor=_coerce(values, "dark_factor", float, 0.2),
            quant_levels=_coerce(values, "quant_levels", int, 256),
            gamma=_coerce(values, "gamma", float, 3.0),
        )
        data.validate()
    except ValidationError as exc:
        raise UsageError(str(exc)) from None
    teachers = values.get("teacher", [])
    return RunConfig(
        distill=distill,
        data=data,
        teacher_paths=list(teachers),
        data_dir=values.get("data_dir"),
    )


def _int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"bad {flag} list: {raw!r}") from None


def cmd_gen_data(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    out = _require(values.get("out"), "--out")
    data = gen_dataset(derive_seed(rc.seed, STAGE_DATA), rc.data)
    written = write_all_views(str(out), data)
    print(f"wrote {len(written)} dataset files to {out}")
    return 0


def cmd_train_teacher(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    dataset = load_dataset(_require(args.data, "--data"))
    model = train_plain(dataset, rc.distill, rc.seed)
    out = _require(values.get("out"), "--out")
    write_model(str(out), model)
    acc = evaluate(model, dataset.features, dataset.labels)
    print(f"trained on {dataset.n} samples; train top-1 {acc:.4f}; model -> {out}")
    return 0


def cmd_dump_logits(args) -> int:
    values = _merged(args)
    model = load_model(_require(args.model, "--model"))
    dataset = load_dataset(_require(args.data, "--data"))
    teacher_id = _require(args.teacher_id, "--teacher-id")
    if dataset.n == 0:
        raise ValidationError("refusing to dump logits for an empty dataset")
    out = _require(values.get("out"), "--out")
    write_logit_dump(str(out), teacher_id, forward(model, dataset.features))
    print(f"dumped {dataset.n}x{model.n_classes} logits for {teacher_id} -> {out}")
    return 0


def cmd_assemble(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    if rc.distill.strategy not in (cfg.AVG2, cfg.GTD, cfg.PKD):
        raise UsageError("assemble writes a single target matrix: use AVG2, GTD, or PKD")
    if not rc.teacher_paths:
        raise UsageError("assemble needs at least one --teacher dump")
    labels_path = _require(args.labels_from, "--labels-from")
    dataset = load_dataset(labels_path)
    dumps = [load_logits(p) for p in rc.teacher_paths]
    bank = TeacherBank([d.rows for d in dumps], [d.teacher_id for d in dumps])
    if bank.n != dataset.n or bank.c != dataset.n_classes:
        raise ValidationError(
            f"dumps are {bank.n}x{bank.c}, labels file implies {dataset.n}x{dataset.n_classes}"
        )
    targets = build_targets(bank, dataset.labels, rc.distill)
    out = _require(values.get("out"), "--out")
    write_targets(f"{out}.targets.txt", rc.distill.strategy, rc.distill.tau, targets.targets[0])
    paths = [f"{out}.targets.txt"]
    if targets.weights is not None:
        write_weights(f"{out}.weights.txt", rc.distill.strategy, targets.weights.normalized)
        paths.append(f"{out}.weights.txt")
    print("wrote " + " and ".join(paths))
    return 0


def cmd_distill(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    row = run_pipeline(rc)
    out = values.get("out")
    if out:
        write_model(str(out), row.model)
    for teacher_id, acc in sorted(row.teacher_test_acc.items()):
        print(f"{teacher_id} test top-1 {acc:.4f}")
    print(f"strategy {row.strategy} tau {row.tau} seed {row.seed} test top-1 {row.top1:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(_require(args.model, "--model"))
    dataset = load_dataset(_require(args.data, "--data"))
    acc = evaluate(model, dataset.features, dataset.labels)
    print(f"top-1 {acc:.4f} on {dataset.n} samples ({dataset.split}/{dataset.modality})")
    return 0


def cmd_ablate(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    seeds_raw = args.seeds if args.seeds is not None else values.get("seeds", "1,2,3,4,5")
    seeds = _int_list(seeds_raw, "--seeds")
    raw_strategies = (
        args.strategies if args.strategies is not None else values.get("strategies")
    ) or ",".join(cfg.STRATEGIES)
    strategies = [tok.strip() for tok in str(raw_strategies).split(",") if tok.strip()]
    report = run_ablation(rc, strategies, seeds, timing=bool(args.timing))
    table = report_table_text(report)
    out = values.get("out")
    if out:
        with write_atomically(f"{out}.txt") as fh:
            fh.write(table)
        with write_atomically(f"{out}.tsv") as fh:
            fh.write(report_machine_text(report))
    sys.stdout.write(table)
    return 0 if not report.failures else 3


def cmd_cost_probe(args) -> int:
    values = _merged(args)
    rc = _run_config(values)
    epochs = args.epochs if args.epochs is not None else 5
    probe = cost_probe(rc, epochs=max(2, epochs))
    text = cost_probe_text(probe)
    out = values.get("out")
    if out:
        with write_atomically(str(out)) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-teacher": cmd_train_teacher,
    "dump-logits": cmd_dump_logits,
    "assemble": cmd_assemble,
    "distill": cmd_distill,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "cost-probe": cmd_cost_probe,
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
        if isinstance(current, (UsageError, ValidationError)):
            return 1
        current = current.__cause__
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (MultiKdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
