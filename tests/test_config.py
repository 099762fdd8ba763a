"""DistillConfig and DataParams validation, NaN and infinity included."""

import numpy as np
import pytest

import multikd as mk
import multikd.harness as harness
from multikd import DistillConfig, TargetSet, TeacherBank, build_targets, init_student, train
from multikd.cli import main
from multikd.datagen import DataParams
from multikd.errors import ValidationError
from multikd.rng import SplitMix64

NAN = float("nan")
INF = float("inf")


def build(key, value):
    """Validate `key = value`: gamma shapes the generated data, so DataParams holds it."""
    if key == "gamma":
        DataParams(gamma=value).validate()
    else:
        DistillConfig(**{key: value})


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr", "alpha", "h"])
def test_nan_rejected(key):
    with pytest.raises(ValidationError, match=key):
        build(key, NAN)


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_rejected(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be positive"):
        build(key, value)


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr"])
@pytest.mark.parametrize("value", [INF, -INF])
def test_infinite_rejected(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be positive and finite"):
        build(key, value)


def test_train_validates_a_config_mutated_after_construction():
    config = DistillConfig(strategy=mk.NONE)
    config.lr = NAN
    model = init_student(2, 2, 2, SplitMix64(0))
    with pytest.raises(ValidationError, match="lr must be positive"):
        train(model, np.zeros((3, 2)), [0, 1, 0], TargetSet(mk.NONE), config)


@pytest.mark.parametrize("strategy", [s for s in mk.STRATEGIES if s != mk.NONE])
@pytest.mark.parametrize("key, value, message", [
    ("tau", 0, "tau must be positive and finite, got 0"),
    ("alpha", 2, "alpha must be in [0, 1], got 2"),
])
def test_build_targets_validates_a_config_mutated_after_construction(strategy, key, value, message):
    config = DistillConfig(strategy=strategy)
    setattr(config, key, value)
    bank = TeacherBank([np.zeros((3, 2))], ["a"])
    with pytest.raises(ValidationError) as info:
        build_targets(bank, [0, 1, 0], config)
    assert str(info.value) == message


@pytest.mark.parametrize("flag", ["--lr", "--tau", "--weight-tau", "--gamma"])
def test_cli_nan_is_usage_error_before_training(flag, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train", no_training)
    assert main(["distill", "--seed", "1", flag, "nan"]) == 1
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lr", "--tau", "--weight-tau", "--gamma"])
def test_cli_inf_is_usage_error_before_training(flag, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train", no_training)
    monkeypatch.setattr(harness, "train_plain", no_training)
    assert main(["distill", "--seed", "1", flag, "inf"]) == 1
    assert "must be positive and finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["distill", "gen-data"])
def test_cli_non_finite_noise_is_usage_error_before_data(command, value, tmp_path, monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data generation started")

    monkeypatch.setattr(harness, "gen_dataset", no_data)  # gen-data generates through harness too
    assert main([command, "--seed", "1", "--noise", value, "--out", str(tmp_path / "out")]) == 1
    assert f"noise must be nonnegative and finite, got {value}" in capsys.readouterr().err
