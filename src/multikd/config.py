"""Strategy tags and the hyperparameter bundle shared by all modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

# Desk-scale temperature used when none is given. The larger
# per-strategy presets below were tuned on full-scale two-stream video
# models and are exposed for completeness; pass tau explicitly to use
# them.
TAU_DESK_DEFAULT = 4.0
TAU_PRESETS = {
    "KD_SINGLE_A": 5.0,
    "KD_SINGLE_B": 30.0,
    AVG1: 10.0,
    AVG2: 60.0,
    GTD: 20.0,
    PKD: 20.0,
}


@dataclass
class DistillConfig:
    """Every scalar knob of a distillation run.

    alpha mixes the label cross-entropy with the distillation term;
    tau softens both the assembled targets and the student's softmax in
    the distillation term; weight_tau softens teacher distributions for
    weighting only; h is the true-class mass of the preferred reference
    distribution; gamma is the intensity-correction exponent.

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
    gamma: float = 3.0
    lr: float = 0.1
    epochs: int = 30
    batch_size: int = 4
    seed: int = 0
    hidden_dim: int = 32

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.h <= 1.0:
            raise ValidationError(f"h must be in (0, 1], got {self.h}")
        for key in ("tau", "weight_tau", "gamma", "lr"):
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
