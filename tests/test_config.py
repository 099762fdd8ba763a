"""DistillConfig and DataParams validation, NaN and infinity included.

Both, and TeacherBank, are checked once, as built, and frozen after.
"""

import dataclasses

import numpy as np
import pytest

import multikd as mk
from multikd import DistillConfig, TeacherBank, build_targets
from multikd.datagen import DataParams
from multikd.errors import ValidationError

NAN = float("nan")
INF = float("inf")


def build(key, value):
    """Validate `key = value`: gamma shapes the generated data, so DataParams holds it."""
    if key == "gamma":
        DataParams(gamma=value)
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


@pytest.mark.parametrize("owner, key", [(owner, f.name) for owner in (DistillConfig, DataParams)
                                        for f in dataclasses.fields(owner)])
def test_a_checked_config_is_frozen(owner, key):
    config = owner()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, key, NAN)
    assert config == owner()


def test_a_bank_is_frozen_and_its_teachers_read_only():
    bank = TeacherBank([np.zeros((2, 3))], ["a"])
    with pytest.raises(ValueError, match="read-only"):
        bank.teachers[0][0, 0] = NAN
    with pytest.raises(dataclasses.FrozenInstanceError):
        bank.teachers = (np.full((2, 3), NAN),)
    assert isinstance(bank.teachers, tuple) and bank.teacher_ids == ("a",)
    targets = build_targets(bank, [0, 1], DistillConfig(strategy=mk.AVG2))
    assert np.isfinite(targets.targets[0]).all()


def test_a_bank_views_the_callers_float64_arrays_without_copying():
    logits = [np.zeros((2, 3)), np.ones((2, 3))]
    bank = TeacherBank(logits, ["a", "b"])
    for mine, held in zip(logits, bank.teachers):
        assert np.shares_memory(mine, held) and not held.flags.writeable
        assert mine.flags.writeable
