"""DistillConfig validation, NaN and infinity included."""

import numpy as np
import pytest

import multikd as mk
import multikd.harness as harness
from multikd import DistillConfig, TargetSet, init_student, train
from multikd.cli import main
from multikd.errors import ValidationError
from multikd.rng import SplitMix64

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr", "alpha", "h"])
def test_nan_rejected(key):
    with pytest.raises(ValidationError, match=key):
        DistillConfig(**{key: NAN})


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_nonpositive_rejected(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be positive"):
        DistillConfig(**{key: value})


@pytest.mark.parametrize("key", ["tau", "weight_tau", "gamma", "lr"])
@pytest.mark.parametrize("value", [INF, -INF])
def test_infinite_rejected(key, value):
    with pytest.raises(ValidationError, match=f"{key} must be positive and finite"):
        DistillConfig(**{key: value})


def test_train_validates_a_config_mutated_after_construction():
    config = DistillConfig(strategy=mk.NONE)
    config.lr = NAN
    model = init_student(2, 2, 2, SplitMix64(0))
    with pytest.raises(ValidationError, match="lr must be positive"):
        train(model, np.zeros((3, 2)), [0, 1, 0], TargetSet(mk.NONE), config)


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
