"""Strategy tags and the hyperparameter bundle shared by all modules.

DistillConfig, like DataParams, is checked once, as built, and frozen after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, get_type_hints

from .datagen import DataParams
from .errors import ValidationError

NONE = "NONE"
KD_SINGLE = "KD_SINGLE"
AVG1 = "AVG1"
AVG2 = "AVG2"
GTD = "GTD"
PKD = "PKD"

# Canonical report order: baseline, single teacher, equal-weight
# ensembles, then reference-weighted ensembles.
STRATEGIES = (NONE, KD_SINGLE, AVG1, AVG2, GTD, PKD)

# Desk-scale temperature used when none is given.
TAU_DESK_DEFAULT = 4.0


@dataclass(frozen=True)
class DistillConfig:
    """Every scalar knob of a distillation run.

    alpha mixes the label cross-entropy with the distillation term;
    tau softens both the assembled targets and the student's softmax in
    the distillation term; weight_tau softens teacher distributions for
    weighting only; h is the true-class mass of the preferred reference
    distribution.

    lr and batch_size are desk-scale choices: training a small
    classifier from scratch needs a far larger step than fine-tuning a
    pretrained video model, and small batches put SGD in the
    gradient-noise regime where the variance reduction from soft
    targets is actually visible in the ablation.
    """

    strategy: str = PKD
    alpha: float = 0.5
    tau: float = TAU_DESK_DEFAULT
    h: float = 0.99
    weight_tau: float = 1.0
    lr: float = 0.1
    epochs: int = 30
    batch_size: int = 4
    seed: int = 0
    hidden_dim: int = 32

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.h <= 1.0:
            raise ValidationError(f"h must be in (0, 1], got {self.h}")
        for key in ("tau", "weight_tau", "lr"):
            value = getattr(self, key)
            # isfinite rejects NaN, which compares false with everything
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{key} must be positive and finite, got {value}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim < 1:
            raise ValidationError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0 <= int(self.seed) < (1 << 64):
            raise ValidationError("seed must fit in 64 unsigned bits")

    def with_(self, **kwargs) -> "DistillConfig":
        return replace(self, **kwargs)


# Resolved once: get_type_hints is too slow to call per flag.
_FIELD_TYPES = {owner: get_type_hints(owner) for owner in (DistillConfig, DataParams)}


class RunKey(NamedTuple):
    """One run setting, shared by the CLI flags and the config file.

    The flag is `--key` with dashes for underscores. A key that sets
    `field` of `owner` (DistillConfig or DataParams) takes that field's
    type and default; any other key is text, read by the commands that
    use it. A `repeat` key may be given more than once, in order.
    """

    key: str
    help: str
    owner: type | None = None
    field: str | None = None
    repeat: bool = False

    @property
    def kind(self) -> type:
        return _FIELD_TYPES[self.owner][self.field] if self.owner else str


# Every run key, in the order of the CLI flags.
RUN_KEYS = (
    RunKey("seed", "64-bit unsigned run seed", DistillConfig, "seed"),
    RunKey("strategy", "NONE|KD_SINGLE|AVG1|AVG2|GTD|PKD", DistillConfig, "strategy"),
    RunKey("tau", "distillation temperature", DistillConfig, "tau"),
    RunKey("alpha", "cross-entropy mixing weight", DistillConfig, "alpha"),
    RunKey("h", "true-class mass of the preferred reference", DistillConfig, "h"),
    RunKey("gamma", "gamma-correction exponent", DataParams, "gamma"),
    RunKey("weight_tau", "temperature for teacher weighting", DistillConfig, "weight_tau"),
    RunKey("lr", "SGD learning rate", DistillConfig, "lr"),
    RunKey("epochs", "training epochs", DistillConfig, "epochs"),
    RunKey("batch_size", "SGD batch size", DistillConfig, "batch_size"),
    RunKey("hidden_dim", "student hidden width", DistillConfig, "hidden_dim"),
    RunKey("n_train", "training samples", DataParams, "n_train"),
    RunKey("n_test", "test samples", DataParams, "n_test"),
    RunKey("classes", "class count", DataParams, "n_classes"),
    RunKey("dim", "total feature dims (two halves)", DataParams, "dim"),
    RunKey("noise", "sample noise scale", DataParams, "noise"),
    RunKey("dark_factor", "darkening dim factor", DataParams, "dark_factor"),
    RunKey("quant_levels", "darkening quantization levels", DataParams, "quant_levels"),
    RunKey("teacher", "teacher logit dump (repeatable; order defines k)", repeat=True),
    RunKey("data_dir", "directory of gen-data output to reuse"),
    RunKey("out", "output path or prefix"),
    RunKey("seeds", "comma-separated seed list"),
    RunKey("strategies", "comma-separated strategy list"),
)
