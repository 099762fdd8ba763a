"""End-to-end CLI flows and exit codes."""

import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multikd.cli as cli
import multikd.harness as harness
from multikd import DistillConfig
from multikd.cli import build_parser, main
from multikd.config import RUN_KEYS
from multikd.ensemble import TeacherBank, build_targets
from multikd.datagen import DataParams, Dataset
from multikd.formats import (
    fmt_float,
    load_dataset,
    load_logits,
    load_model,
    load_targets,
    write_dataset,
    write_logit_dump,
    write_model,
)
from multikd.harness import RunConfig, assembly_flop_estimate
from multikd.rng import SplitMix64
from multikd.trainer import evaluate, init_student


def run_cli(*argv):
    return main(list(argv))


# Read from the parser, so a subcommand added later is covered as well.
SUBCOMMANDS = list(next(a for a in build_parser()._actions if a.dest == "command").choices)


SMALL = ["--n-train", "120", "--n-test", "60", "--classes", "4", "--dim", "8",
         "--epochs", "3", "--lr", "0.1"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "views"
    assert run_cli("gen-data", "--seed", "5", "--out", str(d), *SMALL) == 0
    return d


def test_gen_data_writes_six_files(data_dir):
    names = sorted(p.name for p in data_dir.iterdir())
    assert names == sorted(
        f"{split}_{mod}.txt" for split in ("train", "test") for mod in ("A", "B", "A_dark")
    )


def test_teacher_dump_assemble_flow(tmp_path, data_dir, capsys):
    model_a = tmp_path / "teacherA.model"
    model_b = tmp_path / "teacherB.model"
    assert run_cli("train-teacher", "--data", str(data_dir / "train_A.txt"),
                   "--seed", "11", "--out", str(model_a), *SMALL) == 0
    assert run_cli("train-teacher", "--data", str(data_dir / "train_B.txt"),
                   "--seed", "12", "--out", str(model_b), *SMALL) == 0

    dump_a = tmp_path / "a.logits"
    dump_b = tmp_path / "b.logits"
    assert run_cli("dump-logits", "--model", str(model_a), "--data", str(data_dir / "train_A.txt"),
                   "--teacher-id", "teacher-A", "--out", str(dump_a)) == 0
    assert run_cli("dump-logits", "--model", str(model_b), "--data", str(data_dir / "train_B.txt"),
                   "--teacher-id", "teacher-B", "--out", str(dump_b)) == 0

    model = load_model(str(model_a))
    dump = load_logits(str(dump_a))
    assert dump.rows.shape == (120, model.n_classes)

    prefix = tmp_path / "assembled"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"),
                   "--teacher", str(dump_a), "--teacher", str(dump_b),
                   "--strategy", "PKD", "--tau", "3.0", "--out", str(prefix)) == 0
    strategy, tau, rows = load_targets(f"{prefix}.targets.txt")
    assert strategy == "PKD" and tau == 3.0
    assert rows.shape == (120, 4)
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-9

    # distill against the dumps, then evaluate the written student
    student = tmp_path / "student.model"
    assert run_cli("distill", "--seed", "5", "--strategy", "PKD",
                   "--teacher", str(dump_a), "--teacher", str(dump_b),
                   "--data-dir", str(data_dir), "--out", str(student), *SMALL) == 0
    out = capsys.readouterr().out
    assert "test top-1" in out
    assert run_cli("evaluate", "--model", str(student),
                   "--data", str(data_dir / "test_A_dark.txt")) == 0


def test_ablate_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "report"
    assert run_cli("ablate", "--seeds", "1,2", "--strategies", "NONE,PKD",
                   "--out", str(prefix), *SMALL) == 0
    capsys.readouterr()
    text = (tmp_path / "report.txt").read_text()
    tsv = (tmp_path / "report.tsv").read_text()
    assert "PKD" in text
    rows = [line.split("\t") for line in tsv.splitlines()[1:]]
    assert len(rows) == 4
    assert all(row[4] == "NA" for row in rows)


def test_ablate_timing_fills_seconds_column(tmp_path, capsys):
    prefix = tmp_path / "timed"
    assert run_cli("ablate", "--seeds", "1", "--strategies", "NONE", "--timing",
                   "--out", str(prefix), *SMALL) == 0
    capsys.readouterr()
    row = (tmp_path / "timed.tsv").read_text().splitlines()[1].split("\t")
    assert float(row[4]) > 0.0  # wall-clock, not NA


def test_cost_probe_writes_file(tmp_path, capsys):
    out = tmp_path / "probe.txt"
    assert run_cli("cost-probe", "--epochs", "2", "--out", str(out),
                   "--n-train", "80", "--n-test", "40", "--classes", "3", "--dim", "6") == 0
    capsys.readouterr()
    text = out.read_text()
    assert "PKD / KD_SINGLE per-epoch ratio" in text
    assert "assembly-flops" in text


def test_cost_probe_reads_epochs_from_config(tmp_path, capsys):
    config = tmp_path / "probe.cfg"
    config.write_text("epochs = 2\nn_train = 80\nn_test = 40\nclasses = 3\ndim = 6\n")
    assert run_cli("cost-probe", "--config", str(config)) == 0
    assert "epochs timed: 2 " in capsys.readouterr().out


def test_cost_probe_times_five_epochs_unless_told(capsys):
    assert run_cli("cost-probe", "--n-train", "80", "--n-test", "40", "--classes", "3", "--dim", "6") == 0
    assert "epochs timed: 5 " in capsys.readouterr().out


@pytest.mark.parametrize("epochs", ["0", "1"])
def test_cost_probe_too_few_epochs_exit_1(epochs, capsys):
    assert run_cli("cost-probe", "--epochs", epochs) == 1
    assert "cost probe needs at least 2 epochs" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert run_cli("distill", "--strategy", "NOT_A_TAG") == 1
    assert run_cli("nonsense-command") == 1
    assert run_cli("distill", "--tau", "-4") == 1
    capsys.readouterr()


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.logits"
    bad.write_text("#logits v1 n=2 c=2 teacher=t\n0.0 inf\n0.0 1.0\n")
    code = run_cli("distill", "--strategy", "PKD", "--teacher", str(bad), *SMALL)
    assert code == 2
    missing = run_cli("evaluate", "--model", str(tmp_path / "nope.model"),
                      "--data", str(tmp_path / "nope.txt"))
    assert missing == 2
    capsys.readouterr()


def test_swapped_view_exit_2(tmp_path, data_dir, capsys):
    views = tmp_path / "views"
    shutil.copytree(data_dir, views)
    other = tmp_path / "other"
    assert run_cli("gen-data", "--seed", "6", "--out", str(other), *SMALL) == 0
    shutil.copy(other / "train_B.txt", views / "train_B.txt")
    capsys.readouterr()
    assert run_cli("distill", "--seed", "5", "--strategy", "PKD",
                   "--data-dir", str(views), *SMALL) == 2
    assert "train_B.txt: labels disagree with" in capsys.readouterr().err


def test_numerical_failure_exit_3(capsys):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("distill", "--strategy", "NONE", "--seed", "1",
                       *SMALL, "--lr", "1e280")
    assert code == 3
    assert "stage" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "seed = 4\nstrategy = NONE\nepochs = 2\nlr = 0.1\n"
        "n_train = 80\nn_test = 40\nclasses = 3\ndim = 6\n"
    )
    assert run_cli("distill", "--config", str(cfg)) == 0
    out = capsys.readouterr().out
    assert "strategy NONE" in out and "seed 4" in out


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\nstrategy = NONE\nepochs = 2\nlr = 0.1\n"
                   "n_train = 80\nn_test = 40\nclasses = 3\ndim = 6\n")
    assert run_cli("distill", "--config", str(cfg), "--seed", "9") == 0
    assert "seed 9" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_seeds_named_as_run_key(source, tmp_path, capsys):
    if source == "flag":
        argv = ["ablate", "--seeds", "a,b"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("seeds = a,b\n")
        argv = ["ablate", "--config", str(config)]
    assert run_cli(*argv) == 1
    assert "error: bad value for seeds: 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("line, message", [("seeds = x", "bad value for seeds: 'x'"),
                                           ("strategies = FOO", "unknown strategy 'FOO'")])
def test_every_subcommand_refuses_a_bad_grid_key_before_any_work(command, line, message, tmp_path,
                                                                 no_work, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert run_cli(command, "--config", str(config)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("key", [row.key for row in RUN_KEYS if row.kind is not str])
def test_a_bad_typed_run_key_reads_alike_as_flag_and_config_line(key, tmp_path, no_work, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = x\n")
    for argv in (["--" + key.replace("_", "-"), "x"], ["--config", str(config)]):
        assert run_cli("distill", *argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: bad value for {key}: 'x'\n")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_rejects_an_unreadable_config(command, tmp_path, capsys):
    for path in [str(tmp_path / "nope.cfg"), ""]:
        assert run_cli(command, "--config", path) == 2, path
        assert capsys.readouterr().err.startswith(f"error: cannot read {path!r}")


BAD_RUN_KEYS = [
    *[([flag, value], f"{flag[2:].replace('-', '_')} must be positive and finite, got {value}")
      for flag in ["--lr", "--tau", "--weight-tau", "--gamma"] for value in ["nan", "inf"]],
    *[(["--noise", value], f"noise must be nonnegative and finite, got {value}") for value in ["nan", "inf"]],
    (["--dark-factor", "2"], "darken factor must be in (0, 1], got 2.0"),
    (["--dark-factor", "nan"], "darken factor must be in (0, 1], got nan"),
    (["--quant-levels", "1"], "quant_levels must be >= 2, got 1"),
    (["--epochs", "-1"], "epochs must be >= 0, got -1"),
    (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("flags, message", BAD_RUN_KEYS, ids=[" ".join(flags) for flags, _ in BAD_RUN_KEYS])
def test_every_subcommand_rejects_a_bad_run_key(command, flags, message, no_work, capsys):
    # checked before any work, also where the subcommand does not use the key:
    # nothing reaches stdout, so `ablate` prints no table
    assert run_cli(command, *flags) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# A valid config; the fuzz below mutates its lines.
CONFIG_LINES = [
    "# a tiny run", "seed = 3", "strategy = GTD", "tau = 2.5", "h = 0.9", "weight_tau = 1.5",
    "lr = 0.05", "epochs = 2", "n_train = 50", "classes = 4", "dim = 8", "noise = 0.1",
    "dark_factor = 0.5", "quant_levels = 16", "gamma = 2.0", "out = x",
]
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "1e309", "0", "", "\u0661\u0662", "\u0663.\u0665", "1_0",
               "0x10", "PKD", "GTD,GTD"]


@st.composite
def fuzzed_configs(draw):
    """CONFIG_LINES as bytes, with lines dropped, repeated, cut short or re-valued, or not UTF-8."""
    lines = [line.encode() for line in CONFIG_LINES]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        op = draw(st.sampled_from(["drop", "repeat", "truncate", "value", "bytes"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif op == "value":
            lines[i] = lines[i].partition(b"=")[0] + b"= " + draw(st.sampled_from(FUZZ_VALUES)).encode()
        else:
            cut = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + lines[i][cut:]
    return b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def tiny_model_and_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_model(str(d / "m.model"), init_student(2, 3, 4, SplitMix64(1)))
    write_dataset(str(d / "d.txt"), Dataset(np.array([[0.1, 0.9], [0.5, 0.5]]), [3, 0], 4, "A", "test"))
    return d


@settings(max_examples=50, deadline=None, derandomize=True)
@given(fuzzed_configs())
def test_fuzzed_config_file_exits_with_one_error_line(tiny_model_and_data, raw):
    # evaluate neither trains nor generates data, so no fuzzed size starts heavy work
    d = tiny_model_and_data
    path = d / "run.cfg"
    path.write_bytes(raw)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["evaluate", "--config", str(path), "--model", str(d / "m.model"),
                     "--data", str(d / "d.txt")])
    assert code in (0, 1, 2)
    if code != 0:
        text = err.getvalue()
        assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1, text
    if code == 2:
        assert str(path) in err.getvalue()


# The flags of `evaluate` a fuzzed value goes to: every run key, --model and --data.
EVALUATE_FLAGS = [
    action.option_strings[0]
    for action in next(a for a in build_parser()._actions if a.dest == "command").choices["evaluate"]._actions
    if action.dest not in ("help", "config")
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flag=st.sampled_from(EVALUATE_FLAGS), value=st.text())
@example(flag="--model", value="a\0b")
@example(flag="--data", value="x\0y")
@example(flag="--out", value="a\0b")
@example(flag="--data", value="-d.txt")
@example(flag="--tau", value="nan")
@example(flag="--lr", value="inf")
@example(flag="--seed", value="1" * 30)
@example(flag="--epochs", value="1" * 30)
def test_fuzzed_flag_value_exits_with_one_error_line(tiny_model_and_data, flag, value):
    d = tiny_model_and_data
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["evaluate", "--model", str(d / "m.model"), "--data", str(d / "d.txt"), flag, value])
    assert code in (0, 1, 2)
    if code != 0:
        text = err.getvalue()
        assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1, text


# `evaluate --model` and `--data` are among the fuzzed flags' examples above.
@pytest.mark.parametrize("argv, code", [
    (["evaluate", "--config", "n\0.cfg"], 2),
    (["train-teacher", "--data", "x\0y", "--out", "t.model"], 2),
    (["assemble", "--strategy", "AVG2", "--labels-from", "d.txt", "--teacher", "t\0.logits",
      "--out", "inspect"], 2),
    (["distill", "--data-dir", "v\0w"], 2),
    (["gen-data", "--out", "a\0b"], 1),
    (["distill", "--out", "a\0b"], 1),
])
def test_a_path_holding_a_nul_byte_ends_in_one_error_line(argv, code, tiny_model_and_data, monkeypatch,
                                                          capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.chdir(tiny_model_and_data)
    for name in ("gen_dataset", "train", "train_plain"):
        monkeypatch.setattr(harness, name, no_work)
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 1:
        assert err == "error: --out 'a\\x00b' holds a NUL byte\n"


@pytest.mark.parametrize("teacher_id", ["a b", ""])
def test_dump_logits_bad_teacher_id_is_a_usage_error_before_any_file(teacher_id, tmp_path, capsys):
    out = tmp_path / "t.logits"
    assert run_cli("dump-logits", "--teacher-id", teacher_id, "--model", str(tmp_path / "missing.model"),
                   "--data", str(tmp_path / "missing.txt"), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: teacher id must be non-empty without whitespace, got {teacher_id!r}\n"
    )
    assert not out.exists()


def test_dump_logits_empty_dataset_exit_2(tmp_path, capsys):
    model = tmp_path / "t.model"
    write_model(str(model), init_student(4, 3, 4, SplitMix64(1)))
    empty = tmp_path / "empty.txt"
    empty.write_text("#dataset v1 n=0 d=4 c=4 modality=A split=train\n")
    assert run_cli("dump-logits", "--model", str(model), "--data", str(empty),
                   "--teacher-id", "t", "--out", str(tmp_path / "t.logits")) == 2
    assert "empty dataset rejected" in capsys.readouterr().err


@pytest.mark.parametrize("position", ["first", "last"])
def test_assemble_names_the_mis_shaped_dump_like_distill(position, tmp_path, data_dir, capsys):
    rng = np.random.default_rng(4)
    good, bad = str(tmp_path / "a.logits"), str(tmp_path / "b.logits")
    write_logit_dump(good, "a", rng.normal(size=(120, 4)))
    write_logit_dump(bad, "b", rng.normal(size=(20, 4)))
    dumps = [bad, good, good] if position == "first" else [good, good, bad]
    teachers = [arg for path in dumps for arg in ("--teacher", path)]
    message = "teacher dump 'b' is 20x4, training data needs 120x4"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--strategy", "PKD",
                   "--out", str(tmp_path / "inspect"), *teachers) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run_cli("distill", "--strategy", "PKD", "--data-dir", str(data_dir), *teachers, *SMALL) == 1
    assert capsys.readouterr().err == f"error: stage 'teachers': {message}\n"


def test_assemble_kd_single_writes_the_build_targets_bits(tmp_path, data_dir, capsys):
    dump = str(tmp_path / "a.logits")
    write_logit_dump(dump, "a", np.random.default_rng(6).normal(size=(120, 4)))
    prefix = tmp_path / "single"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", dump,
                   "--strategy", "KD_SINGLE", "--tau", "2.5", "--out", str(prefix)) == 0
    assert capsys.readouterr().out == f"wrote {prefix}.targets.txt\n"
    dataset = load_dataset(str(data_dir / "train_A.txt"))
    bank = TeacherBank([load_logits(dump).rows], ["a"])
    expected = build_targets(bank, dataset.labels, DistillConfig(strategy="KD_SINGLE", tau=2.5))
    strategy, tau, rows = load_targets(f"{prefix}.targets.txt")
    assert (strategy, tau) == ("KD_SINGLE", 2.5)
    assert rows.tobytes() == expected.targets[0].tobytes()


def test_assemble_avg1_writes_the_avg2_bits_under_its_own_tag(tmp_path, data_dir, two_dumps, capsys):
    prefix = tmp_path / "avg1"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", two_dumps[0],
                   "--teacher", two_dumps[1], "--strategy", "AVG1", "--tau", "2.5", "--out", str(prefix)) == 0
    assert capsys.readouterr().out == f"wrote {prefix}.targets.txt\n"
    dataset = load_dataset(str(data_dir / "train_A.txt"))
    bank = TeacherBank([load_logits(path).rows for path in two_dumps], ["t0", "t1"])
    expected = build_targets(bank, dataset.labels, DistillConfig(strategy="AVG2", tau=2.5))
    strategy, tau, rows = load_targets(f"{prefix}.targets.txt")
    assert (strategy, tau) == ("AVG1", 2.5)
    assert rows.tobytes() == expected.targets[0].tobytes()


def test_assemble_refuses_none(tmp_path, data_dir, capsys):
    dump = str(tmp_path / "a.logits")
    write_logit_dump(dump, "a", np.random.default_rng(6).normal(size=(120, 4)))
    prefix = tmp_path / "refused"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", dump,
                   "--teacher", dump, "--strategy", "NONE", "--out", str(prefix)) == 1
    assert capsys.readouterr().err == "error: strategy NONE has no targets to assemble\n"
    assert not tmp_path.joinpath("refused.targets.txt").exists()


@pytest.fixture
def two_dumps(tmp_path):
    """Two teacher dumps over the 120 x 4 training view of data_dir."""
    paths = []
    for k in range(2):
        paths.append(str(tmp_path / f"t{k}.logits"))
        write_logit_dump(paths[-1], f"t{k}", np.random.default_rng(k).normal(size=(120, 4)) * 3.0)
    return paths



def test_distill_prints_each_in_process_teacher_by_id_then_the_student(capsys):
    assert run_cli("distill", "--strategy", "AVG2", "--seed", "2", "--tau", "2.5", *SMALL) == 0
    out = capsys.readouterr().out
    rc = RunConfig(distill=DistillConfig(strategy="AVG2", seed=2, tau=2.5, epochs=3, lr=0.1),
                   data=DataParams(n_train=120, n_test=60, n_classes=4, dim=8))
    row = harness.run_pipeline(rc)
    teachers = sorted(row.teacher_test_acc.items())
    assert len(teachers) > 1 and all(teacher_id.startswith("teacher-") for teacher_id, _ in teachers)
    assert out == "".join(f"{teacher_id} test top-1 {acc:.4f}\n" for teacher_id, acc in teachers) + (
        f"strategy AVG2 tau 2.5 seed 2 test top-1 {row.top1:.4f}\n")

def test_kd_single_distills_from_the_first_of_several_dumps(tmp_path, data_dir, two_dumps, capsys):
    files = ["--data-dir", str(data_dir), "--teacher", two_dumps[0], "--teacher", two_dumps[1]]
    prefix = tmp_path / "report"
    assert run_cli("ablate", "--seeds", "5", "--strategies", "KD_SINGLE,PKD", *files,
                   "--out", str(prefix), *SMALL) == 0
    student = tmp_path / "single.model"
    assert run_cli("distill", "--seed", "5", "--strategy", "KD_SINGLE", "--data-dir", str(data_dir),
                   "--teacher", two_dumps[0], "--out", str(student), *SMALL) == 0
    capsys.readouterr()
    rows = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["KD_SINGLE", "PKD"]
    test = load_dataset(str(data_dir / "test_A_dark.txt"))
    top1 = evaluate(load_model(str(student)), test.features, test.labels)
    assert rows[0][3] == fmt_float(top1)


def test_cost_probe_with_two_dumps_times_kd_single_on_the_first(tmp_path, data_dir, two_dumps,
                                                                 capsys):
    out = tmp_path / "probe.txt"
    assert run_cli("cost-probe", "--epochs", "2", "--data-dir", str(data_dir), "--teacher",
                   two_dumps[0], "--teacher", two_dumps[1], "--out", str(out), *SMALL) == 0
    capsys.readouterr()
    flops = {line.split()[0]: line.split()[-1] for line in out.read_text().splitlines()
             if "assembly-flops" in line}
    assert flops == {"NONE": "0", "KD_SINGLE": str(assembly_flop_estimate(120, 1, 4)),
                     "PKD": str(assembly_flop_estimate(120, 2, 4))}


TINY = ["--n-train", "20", "--n-test", "10", "--epochs", "1"]


def short_dump(tmp_path):
    """A logit dump whose header says two rows and which holds one."""
    bad = tmp_path / "bad.logits"
    bad.write_text("#logits v1 n=2 c=2 teacher=t\n0.0 1.0\n")
    return str(bad)


def test_ablate_malformed_dump_exit_2(tmp_path, capsys):
    bad = short_dump(tmp_path)
    assert run_cli("ablate", "--seeds", "1", "--strategies", "AVG2", "--teacher", bad, *TINY) == 2
    captured = capsys.readouterr()
    assert "AVG2      -    FAILED" in captured.out
    assert captured.err == (
        f"error: AVG2 seed 1: stage 'teachers': {bad}: row count mismatch (header says 2, found 1)\n"
    )


@pytest.mark.parametrize("flags, message", [
    (["--strategies", "NONE", "--seeds", "1,1"], "seed 1 is given twice"),
    (["--strategies", "NONE,AVG2,NONE", "--seeds", "1"], "strategy 'NONE' is given twice"),
])
def test_ablate_refuses_a_repeated_seed_or_strategy(flags, message, capsys):
    assert run_cli("ablate", *flags, *TINY) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("flags", [["--strategies", ""], ["--strategies", ","], ["--seeds", ""]])
def test_ablate_refuses_an_empty_strategy_or_seed_list(flags, no_work, capsys):
    assert run_cli("ablate", *flags, *TINY) == 1
    assert capsys.readouterr() == ("", "error: need at least one strategy and one seed\n")


def test_ablate_refuses_an_out_of_range_seed_before_any_cell(capsys):
    assert run_cli("ablate", "--seeds", "1,-1", *TINY) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must fit in 64 unsigned bits\n" and captured.out == ""


@pytest.mark.parametrize("command", [name for name in SUBCOMMANDS if name != "gen-data"])
def test_out_in_a_missing_directory_is_refused_before_any_work(command, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train", no_training)
    monkeypatch.setattr(harness, "train_plain", no_training)
    missing = tmp_path / "missing"
    flags = ["--seeds", "1", "--strategies", "NONE,PKD"] if command == "ablate" else []
    assert run_cli(command, *flags, "--out", str(missing / "r")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: no directory {str(missing)!r} for --out\n" and captured.out == ""


def test_a_newline_in_the_missing_out_directory_stays_in_one_error_line(tmp_path, no_work, capsys):
    missing = str(tmp_path / "a\nb")
    assert run_cli("evaluate", "--model", "m", "--data", "d", "--out", os.path.join(missing, "c")) == 1
    assert capsys.readouterr() == ("", f"error: no directory {missing!r} for --out\n")


def test_gen_data_creates_its_out_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "data"
    assert run_cli("gen-data", "--out", str(out), "--n-train", "4", "--n-test", "4") == 0
    assert len(list(out.iterdir())) == 6


def refuse_work(monkeypatch):
    """Spies that fail the test if a run generates data, trains or reads a model or dataset file."""
    for module, name in [(harness, "gen_dataset"), (harness, "train"), (harness, "train_plain"),
                         (cli, "load_dataset"), (cli, "load_model")]:
        def spy(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(module, name, spy)


@pytest.fixture
def no_work(monkeypatch):
    refuse_work(monkeypatch)


# Each subcommand's required inputs, --out included, in parser order.
REQUIRED = {
    "gen-data": ["--out"],
    "train-teacher": ["--data", "--out"],
    "dump-logits": ["--data", "--teacher-id", "--model", "--out"],
    "assemble": ["--labels-from", "--out"],
    "distill": [],
    "evaluate": ["--data", "--model"],
    "ablate": [],
    "cost-probe": [],
}


def test_required_inputs_cover_every_subcommand():
    assert sorted(REQUIRED) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in SUBCOMMANDS for flag in REQUIRED.get(command, [])
])
def test_missing_required_input_is_refused_before_any_work(command, flag, tmp_path, no_work, capsys):
    given = {"--out": tmp_path / "out", "--data": tmp_path / "d.txt", "--model": tmp_path / "m.model",
             "--teacher-id": "t", "--labels-from": tmp_path / "d.txt"}
    argv = [str(arg) for other in REQUIRED[command] if other != flag for arg in (other, given[other])]
    if command == "assemble":
        argv += ["--teacher", str(tmp_path / "a.logits")]
    assert run_cli(command, *argv) == 1
    assert capsys.readouterr() == ("", f"error: missing required flag {flag}\n")


def test_writer_takes_its_out_from_the_config(tmp_path, data_dir, capsys):
    model = tmp_path / "t.model"
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {model}\nepochs = 2\n")
    assert run_cli("train-teacher", "--config", str(config), "--data", str(data_dir / "train_A.txt")) == 0
    assert capsys.readouterr().out.endswith(f"model -> {model}\n")
    assert load_model(str(model)).n_classes == 4


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_out_that_names_no_file_is_refused_before_any_work(command, tmp_path, no_work, capsys):
    # gen-data's --out is a directory, so only an empty one names nothing
    outs = [""] if command == "gen-data" else ["", str(tmp_path) + os.sep]
    for out in outs:
        assert run_cli(command, f"--out={out}") == 1
        assert capsys.readouterr() == ("", f"error: --out {out!r} names no file\n")
    assert os.listdir(tmp_path) == []


def test_gen_data_out_that_is_no_directory_is_refused_before_any_work(tmp_path, no_work, capsys):
    out = tmp_path / "afile"
    out.write_text("kept\n")
    assert run_cli("gen-data", "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: --out {str(out)!r} is not a directory\n")
    assert out.read_text() == "kept\n"


def test_gen_data_out_under_a_file_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "gen_dataset", lambda *args, **kwargs: calls.append(args))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = str(afile / "sub")
    assert run_cli("gen-data", "--out", out) == 1
    message = f"error: --out {out!r} lies under {str(afile)!r}, which is not a directory\n"
    assert capsys.readouterr() == ("", message)
    assert calls == [] and afile.read_text() == "kept\n"


def test_assemble_without_weights_ignores_a_directory_at_the_weights_path(tmp_path, data_dir, capsys):
    # AVG2 writes no <out>.weights.txt, so a directory there is in no file's way
    dump = str(tmp_path / "a.logits")
    write_logit_dump(dump, "a", np.random.default_rng(6).normal(size=(120, 4)))
    prefix = tmp_path / "inspect"
    os.mkdir(f"{prefix}.weights.txt")
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", dump,
                   "--strategy", "AVG2", "--out", str(prefix)) == 0
    assert capsys.readouterr() == (f"wrote {prefix}.targets.txt\n", "")
    assert load_targets(f"{prefix}.targets.txt")[0] == "AVG2"


def test_ablate_prefix_beside_a_directory_of_its_name_still_runs(tmp_path, capsys):
    (tmp_path / "results").mkdir()
    out = str(tmp_path / "results")
    assert run_cli("ablate", "--seeds", "1", "--strategies", "NONE", *SMALL, "--out", out) == 0
    assert os.path.isfile(out + ".txt") and os.path.isfile(out + ".tsv")


# Each subcommand that writes at --out, with the flags of one small run over
# data_dir's training view (`{data}`), a model (`{model}`) and two dumps.
WRITER_RUNS = [
    pytest.param("train-teacher", ["--data", "{data}", "--epochs", "1"], id="train-teacher"),
    pytest.param("dump-logits", ["--data", "{data}", "--model", "{model}", "--teacher-id", "t"], id="dump-logits"),
    *[pytest.param("assemble", ["--labels-from", "{data}", "--teacher", "{dump0}", "--teacher", "{dump1}",
                                "--strategy", strategy], id=f"assemble-{strategy}")
      for strategy in ["AVG2", "GTD", "PKD"]],
    pytest.param("distill", ["--strategy", "NONE", *TINY], id="distill"),
    pytest.param("ablate", ["--seeds", "1", "--strategies", "NONE", *TINY], id="ablate"),
    pytest.param("cost-probe", ["--n-train", "20", "--n-test", "10", "--epochs", "2"], id="cost-probe"),
]


@pytest.mark.parametrize("command, flags", WRITER_RUNS)
def test_a_writer_writes_exactly_its_out_paths_and_refuses_a_directory_at_each(command, flags, tmp_path,
                                                                               data_dir, two_dumps, monkeypatch,
                                                                               capsys):
    model = str(tmp_path / "m.model")
    write_model(model, init_student(4, 3, 4, SplitMix64(1)))
    given = {"{data}": str(data_dir / "train_A.txt"), "{model}": model,
             "{dump0}": two_dumps[0], "{dump1}": two_dumps[1]}
    run, out = tmp_path / "run", str(tmp_path / "run" / "r")
    argv = [command, *(given.get(flag, flag) for flag in flags), "--out", out]
    values = cli._merged(build_parser().parse_args(argv))
    paths = cli._out_paths(command, out, cli._run_config(values))
    run.mkdir()
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert sorted(os.listdir(run)) == sorted(os.path.basename(path) for path in paths)
    refuse_work(monkeypatch)
    for path in paths:
        shutil.rmtree(run)
        run.mkdir()
        os.mkdir(path)
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == ("", f"error: --out {out!r} is a directory\n" if path == out
                                       else f"error: --out {out!r} writes {path!r}, which is a directory\n")
        assert os.listdir(run) == [os.path.basename(path)] and os.listdir(path) == []
    if out in paths:  # so is the directory a run starts in
        assert run_cli(*argv[:-1], ".") == 1
        assert capsys.readouterr() == ("", "error: --out '.' is a directory\n")


def test_assemble_refuses_kd_single_of_two_before_any_file(tmp_path, data_dir, no_work, capsys):
    dump = str(tmp_path / "a.logits")
    write_logit_dump(dump, "a", np.random.default_rng(6).normal(size=(120, 4)))
    for second in [dump, str(tmp_path / "nope.logits")]:
        assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", dump,
                       "--teacher", second, "--strategy", "KD_SINGLE", "--out", str(tmp_path / "refused")) == 1
        assert capsys.readouterr().err == "error: KD_SINGLE requires exactly one teacher, got 2\n"
        assert not tmp_path.joinpath("refused.targets.txt").exists()



def test_assemble_without_a_teacher_is_refused_before_any_file(tmp_path, data_dir, no_work, capsys):
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--strategy", "PKD",
                   "--out", str(tmp_path / "refused")) == 1
    assert capsys.readouterr() == ("", "error: assemble needs at least one --teacher dump\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("text, message", [
    ("", ": empty file (bad magic line)"),
    ("#logits v1 n=-1 c=4 teacher=a\n", ":1: n must be nonnegative"),
], ids=["empty", "negative-n"])
def test_assemble_refuses_a_dump_with_no_valid_header(tmp_path, data_dir, text, message, capsys):
    dump = tmp_path / "a.logits"
    dump.write_text(text)
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", str(dump),
                   "--strategy", "PKD", "--out", str(tmp_path / "refused")) == 2
    assert capsys.readouterr() == ("", f"error: {dump}{message}\n")
    assert not list(tmp_path.glob("refused*"))

def test_ablate_diverging_cell_exit_3(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("ablate", "--seeds", "1", "--strategies", "NONE", *TINY, "--lr", "1e280")
    assert code == 3
    assert capsys.readouterr().err == (
        "error: NONE seed 1: stage 'train-student': non-finite student logits; training aborted\n"
    )


def test_ablate_exit_code_is_the_first_failed_cell_in_report_order(tmp_path, capsys):
    # the diverging NONE cell precedes the AVG2 cell with the bad dump
    bad = short_dump(tmp_path)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("ablate", "--seeds", "1", "--strategies", "AVG2,NONE", "--teacher", bad,
                       *TINY, "--lr", "1e280")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in lines] == [" NONE seed 1", " AVG2 seed 1"]


def test_none_binds_no_teacher_dumps(tmp_path, capsys):
    bad = short_dump(tmp_path)
    assert run_cli("distill", "--strategy", "NONE", "--teacher", bad, *TINY) == 0
    capsys.readouterr()
    prefix = tmp_path / "report"
    assert run_cli("ablate", "--seeds", "1", "--strategies", "NONE,AVG2", "--teacher", bad,
                   "--out", str(prefix), *TINY) == 2
    capsys.readouterr()
    rows = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()[1:]]
    assert rows[0][:3] == ["NONE", "4.0", "1"] and rows[0][3] != "FAILED"
    assert rows[1][:4] == ["AVG2", "-", "1", "FAILED"]


def test_kd_single_binds_only_the_first_dump(tmp_path, data_dir, two_dumps, capsys):
    files = ["--data-dir", str(data_dir), "--teacher", two_dumps[0]]
    assert run_cli("distill", "--strategy", "KD_SINGLE", *files, *SMALL) == 0
    alone = capsys.readouterr().out
    bad = short_dump(tmp_path)
    assert run_cli("distill", "--strategy", "KD_SINGLE", *files, "--teacher", bad, *SMALL) == 0
    assert capsys.readouterr().out == alone
    assert run_cli("distill", "--strategy", "PKD", *files, "--teacher", bad, *SMALL) == 2
    capsys.readouterr()


def test_a_dump_given_twice_is_refused(tmp_path, data_dir, two_dumps, monkeypatch, capsys):
    twice = ["--data-dir", str(data_dir), "--teacher", two_dumps[0], "--teacher", two_dumps[0]]
    message = "teacher id 't0' is given twice"
    prefix = tmp_path / "report"
    assert run_cli("ablate", "--seeds", "5", *twice, "--out", str(prefix), *SMALL) == 1
    assert capsys.readouterr().err == "".join(
        f"error: {tag} seed 5: stage 'teachers': {message}\n" for tag in ("AVG1", "AVG2", "GTD", "PKD")
    )
    rows = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows if row[3] != "FAILED"] == ["NONE", "KD_SINGLE"]
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--strategy", "AVG2",
                   "--out", str(tmp_path / "inspect"), *twice[2:]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("inspect*"))

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train", no_training)
    assert run_cli("distill", "--strategy", "PKD", *twice, *SMALL) == 1
    assert capsys.readouterr().err == f"error: stage 'teachers': {message}\n"


@pytest.fixture
def model_10_in_11_out(tmp_path):
    path = tmp_path / "m.model"
    write_model(str(path), init_student(10, 4, 11, SplitMix64(1)))
    return str(path)


def test_evaluate_rejects_feature_width_of_another_model(tmp_path, model_10_in_11_out, capsys):
    narrow = tmp_path / "narrow.txt"
    narrow.write_text("#dataset v1 n=1 d=3 c=11 modality=A split=test\n0.1 0.2 0.3 1\n")
    assert run_cli("evaluate", "--model", model_10_in_11_out, "--data", str(narrow)) == 1
    assert capsys.readouterr().err == "error: features have 3 dims, model expects 10\n"


@pytest.mark.parametrize("command", ["evaluate", "dump-logits"])
def test_class_count_must_match_the_model(command, tmp_path, model_10_in_11_out, capsys):
    data = tmp_path / "c3.txt"
    data.write_text("#dataset v1 n=1 d=10 c=3 modality=A split=test\n" + "0 " * 10 + "1\n")
    out = tmp_path / "t.logits"
    extra = ["--teacher-id", "t", "--out", str(out)] if command == "dump-logits" else []
    assert run_cli(command, "--model", model_10_in_11_out, "--data", str(data), *extra) == 1
    assert capsys.readouterr().err == "error: dataset has 3 classes, model has 11\n"
    assert not out.exists()


def test_ablate_failures_come_in_report_order(tmp_path, capsys):
    prefix = tmp_path / "report"
    assert run_cli("ablate", "--seeds", "2,1", "--strategies", "PKD,NONE", "--teacher",
                   str(tmp_path / "nosuch.logits"), "--out", str(prefix), *TINY) == 2
    out, err = capsys.readouterr()
    rows = [line.split("\t")[:4] for line in (tmp_path / "report.tsv").read_text().splitlines()[1:]]
    assert [(row[0], row[2]) for row in rows] == [("NONE", "1"), ("NONE", "2"), ("PKD", "1"), ("PKD", "2")]
    assert [row[3] for row in rows[2:]] == ["FAILED", "FAILED"]
    assert [line.split()[:5] for line in out.splitlines()[-2:]] == [
        ["PKD", "-", "FAILED", "seed", "1"], ["PKD", "-", "FAILED", "seed", "2"]]
    assert [line.split(":")[1] for line in err.splitlines()] == [" PKD seed 1", " PKD seed 2"]


def test_a_temperature_that_overflows_the_teacher_logits_exits_3(tmp_path, data_dir, two_dumps, capsys):
    # 1e-310 is a positive, finite tau, but logits / tau overflow
    prefix = tmp_path / "inspect"
    assert run_cli("assemble", "--labels-from", str(data_dir / "train_A.txt"), "--teacher", two_dumps[0],
                   "--teacher", two_dumps[1], "--strategy", "PKD", "--tau", "1e-310",
                   "--out", str(prefix)) == 3
    assert capsys.readouterr() == ("", "error: non-finite PKD targets; assembly aborted\n")
    assert sorted(os.listdir(tmp_path)) == ["t0.logits", "t1.logits"]
    assert run_cli("distill", "--strategy", "AVG2", "--tau", "1e-310", *TINY) == 3
    assert capsys.readouterr() == (
        "", "error: stage 'assemble-targets': non-finite AVG2 targets; assembly aborted\n")


@pytest.mark.parametrize("command", ["evaluate", "dump-logits"])
def test_a_model_whose_logits_overflow_exits_3(command, tmp_path, data_dir, capsys):
    # every hidden unit is 1 and every w2 entry 1.5e307: 16 of them overflow each logit
    model = init_student(4, 16, 4, SplitMix64(1))
    model.w1 = np.zeros(model.w1.shape)
    model.b1 = np.ones(16)
    model.w2 = np.full(model.w2.shape, 1.5e307)
    path, out = str(tmp_path / "m.model"), tmp_path / "t.logits"
    write_model(path, model)
    extra = ["--teacher-id", "t", "--out", str(out)] if command == "dump-logits" else []
    assert run_cli(command, "--model", path, "--data", str(data_dir / "test_A.txt"), *extra) == 3
    assert capsys.readouterr() == ("", "error: non-finite model logits\n")
    assert not out.exists()
