"""Pins on what the program shows the outside: file bytes, CLI flags, run keys, API.

The writer goldens in tests/golden/writers/ and the parser snapshot in
tests/golden/cli_surface.json were written from the code before the
run-key table and the matrix codec replaced the hand-written versions.
tests/golden/api_surface.json lists the public names of the package and
of each module. `python tests/test_pinned_surface.py` writes them all
again from the current code; do that only for a deliberate format, CLI
or API change.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import multikd
from multikd import cli
from multikd.datagen import Dataset
from multikd.formats import (
    write_dataset,
    write_logit_dump,
    write_model,
    write_targets,
    write_weights,
)
from multikd.harness import RunConfig
from multikd.trainer import StudentModel

GOLDEN = Path(__file__).resolve().parent / "golden"

# Values whose shortest repr takes each form: short, 17 digits, exponent,
# subnormal, negative zero, integral.
ROW = [0.1, 1 / 3, -2.5e-300, 1e22, 5e-324, -0.0]

WRITERS = {
    "logits": lambda path: write_logit_dump(path, "teacher-A", [ROW, ROW[::-1]]),
    "dataset": lambda path: write_dataset(
        path, Dataset(np.array([ROW[:3], ROW[3:], [1.0, 0.0, 2.0**-30]]), [2, 0, 1], 3, "A_dark", "test")
    ),
    "model": lambda path: write_model(
        path,
        StudentModel(
            w1=np.array([ROW[:3], ROW[3:]]),
            b1=np.array([0.5, -1.25]),
            w2=np.array([[1.0, -1.0], [0.2, 0.3], [7e-8, 12345.678]]),
            b2=np.array([0.0, 1e-5, -3.0]),
        ),
    ),
    "targets": lambda path: write_targets(path, "GTD", 2.5, [[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]]),
    "weights": lambda path: write_weights(path, "PKD", [[0.75, 0.25], [0.1, 0.9]]),
}


def cli_surface() -> dict:
    """Every subcommand's options, in parser order, as plain data."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.dest == "command")
    surface = {}
    for name, sub in subs.choices.items():
        surface[name] = [
            {
                "flags": action.option_strings,
                "dest": action.dest,
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", action.type),
                "default": action.default,
                "help": action.help,
            }
            for action in sub._actions
        ]
    return surface


def api_surface() -> dict:
    """The sorted public names of multikd and of each of its modules but __main__.

    The package's names are what it re-exports. A module's are the names
    it defines itself: those its own import statements bind are left out.
    """
    surface = {"multikd": sorted(
        key for key, value in vars(multikd).items()
        if not key.startswith("_") and not inspect.ismodule(value)
    )}
    for info in pkgutil.iter_modules(multikd.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"multikd.{info.name}")
        imported = {
            alias.asname or alias.name
            for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        surface[module.__name__] = sorted(
            key for key in vars(module) if not key.startswith("_") and key not in imported
        )
    return surface


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_bytes_pinned(tmp_path, writer):
    path = tmp_path / f"{writer}.txt"
    WRITERS[writer](path)
    assert path.read_bytes() == (GOLDEN / "writers" / f"{writer}.txt").read_bytes()


def test_cli_surface_pinned():
    assert cli_surface() == json.loads((GOLDEN / "cli_surface.json").read_text())


def test_api_surface_pinned():
    assert api_surface() == json.loads((GOLDEN / "api_surface.json").read_text())


def test_run_config_defaults_are_the_dataclass_defaults():
    assert cli._run_config({}) == RunConfig()


# One non-default value per run key that a RunConfig holds.
RUN_VALUES = {
    "seed": "7",
    "strategy": "AVG1",
    "tau": "2.5",
    "alpha": "0.25",
    "h": "0.9",
    "gamma": "2.0",
    "weight_tau": "1.5",
    "lr": "0.05",
    "epochs": "3",
    "batch_size": "8",
    "hidden_dim": "16",
    "n_train": "50",
    "n_test": "20",
    "classes": "5",
    "dim": "6",
    "noise": "0.1",
    "dark_factor": "0.3",
    "quant_levels": "64",
    "data_dir": "some/dir",
    "out": "some/out",
}


@pytest.mark.parametrize("key", RUN_VALUES)
def test_flag_and_config_line_build_the_same_run(tmp_path, key):
    value = RUN_VALUES[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    parser = cli.build_parser()
    by_flag = cli._merged(parser.parse_args(["distill", "--" + key.replace("_", "-"), value]))
    by_file = cli._merged(parser.parse_args(["distill", "--config", str(config)]))
    assert cli._run_config(by_flag) == cli._run_config(by_file)
    assert cli._run_config(by_flag) != RunConfig() or key == "out"
    assert str(by_flag.get("out")) == str(by_file.get("out"))


@pytest.mark.parametrize("key,value", [("seeds", "3,4"), ("strategies", "NONE,GTD")])
def test_ablate_grid_keys_from_flag_or_config(tmp_path, monkeypatch, key, value):
    calls = []

    class Report:
        failures = []

    def fake_ablation(rc, strategies, seeds, timing=False):
        calls.append((strategies, seeds))
        return Report()

    monkeypatch.setattr(cli, "run_ablation", fake_ablation)
    monkeypatch.setattr(cli, "report_table_text", lambda report: "")
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    assert cli.main(["ablate", f"--{key}", value]) == 0
    assert cli.main(["ablate", "--config", str(config)]) == 0
    assert calls[0] == calls[1]
    assert calls[0] != (list(cli.cfg.STRATEGIES), [1, 2, 3, 4, 5])


if __name__ == "__main__":
    out = GOLDEN / "writers"
    out.mkdir(parents=True, exist_ok=True)
    for name, write in WRITERS.items():
        write(out / f"{name}.txt")
    (GOLDEN / "cli_surface.json").write_text(json.dumps(cli_surface(), indent=1) + "\n")
    (GOLDEN / "api_surface.json").write_text(json.dumps(api_surface(), indent=1) + "\n")
    print(f"wrote {len(WRITERS)} writer goldens, the CLI and the API surface under {GOLDEN}",
          file=sys.stderr)
