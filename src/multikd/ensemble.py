"""Assembly of several teachers' logits into one soft target.

The pipeline is: build a reference distribution per sample (one-hot
ground truth, or the preferred distribution that keeps mass h on the
true class and spreads the rest), score every teacher against it by
inverse cross-entropy, normalize the scores across teachers, and take
the weighted convex combination of the softened teacher distributions.

Everything happens offline on stored logits; no teacher model is ever
needed once its logits are dumped, so the number of teachers only
affects this one-shot assembly, never the training loop. Every strategy,
AVG1 included, yields one N x C target matrix: O(N*C) memory at any K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config as cfg
from .errors import ValidationError
from .numerics import EPS, cross_entropy_rows, entropy_rows, running_mean, softmax_t

WEIGHT_ROW_SUM_TOL = 1e-6


def validate_labels(labels, n_classes: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("labels must be a non-empty 1-D vector")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("labels must be integers")
        arr = arr.astype(np.int64)
    if (arr < 0).any() or (arr >= n_classes).any():
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    return arr.astype(np.int64)


@dataclass
class TeacherBank:
    """Aligned logit matrices from K teachers; row n is sample n everywhere."""

    teachers: list[np.ndarray]
    teacher_ids: list[str]

    def __post_init__(self):
        if len(self.teachers) == 0:
            raise ValidationError("a teacher bank needs at least one teacher")
        if len(self.teacher_ids) != len(self.teachers):
            raise ValidationError("teacher_ids must match teachers in length")
        mats = []
        shape = None
        for ident, mat in zip(self.teacher_ids, self.teachers):
            arr = np.asarray(mat, dtype=np.float64)
            if arr.ndim != 2 or arr.size == 0:
                raise ValidationError(f"teacher {ident!r}: logits must be a non-empty N x C matrix")
            if not np.isfinite(arr).all():
                raise ValidationError(f"teacher {ident!r}: logits must be finite")
            if shape is None:
                shape = arr.shape
            elif arr.shape != shape:
                raise ValidationError(
                    f"teacher {ident!r}: shape {arr.shape} disagrees with {shape}"
                )
            mats.append(arr)
        self.teachers = mats

    @property
    def k(self) -> int:
        return len(self.teachers)

    @property
    def n(self) -> int:
        return self.teachers[0].shape[0]

    @property
    def c(self) -> int:
        return self.teachers[0].shape[1]


@dataclass
class EnsembleWeights:
    """Per-sample teacher scores, raw and normalized to the simplex."""

    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        self.normalized = np.asarray(self.normalized, dtype=np.float64)
        if self.raw.shape != self.normalized.shape or self.raw.ndim != 2:
            raise ValidationError("raw and normalized must be equal-shape N x K matrices")
        if (self.raw <= 0.0).any():
            raise ValidationError("raw weights must be strictly positive")

    @classmethod
    def from_raw(cls, raw: np.ndarray) -> "EnsembleWeights":
        raw = np.asarray(raw, dtype=np.float64)
        return cls(raw=raw, normalized=raw / raw.sum(axis=1, keepdims=True))


@dataclass
class PkdParams:
    """True-class mass h for the preferred reference over n_classes.

    h must exceed the uniform share 1/C, so single-class problems are
    rejected (there is no off-class mass to place).
    """

    h: float
    n_classes: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError("preferred distribution needs at least 2 classes")
        if not (1.0 / self.n_classes) < self.h <= 1.0:
            raise ValidationError(
                f"h must be in (1/{self.n_classes}, 1], got {self.h}"
            )


@dataclass
class TargetSet:
    """Soft targets for one strategy: none for NONE, else one N x C matrix.

    GTD and PKD also keep the teacher weights around for inspection.
    AVG1 carries its per-row entropy gap H(mean) - mean_k H(t_k), as its
    loss mean_k KL(t_k || p) is KL(mean || p) + gap. No gap is a zero gap.
    """

    strategy: str
    targets: list[np.ndarray] = field(default_factory=list)
    weights: EnsembleWeights | None = None
    gap: np.ndarray | None = None

    def __post_init__(self):
        if self.strategy not in cfg.STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.strategy == cfg.NONE:
            if self.targets:
                raise ValidationError("strategy NONE carries no targets")
        elif len(self.targets) != 1:
            raise ValidationError(f"strategy {self.strategy} carries exactly one target matrix")


def _inverse_ce(refs: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Row-wise 1 / CE(ref, dist), the cross-entropy floored at 1e-12.

    The floor keeps a teacher that matches its reference exactly at a
    finite, dominant weight. A one-hot reference has zero entropy, so
    there this is the inverse of KL(ref || dist), bit for bit.
    """
    return 1.0 / np.maximum(cross_entropy_rows(refs, dists), EPS)


def _reference_rows(labels: np.ndarray, n_classes: int, mode: str, params: PkdParams | None) -> np.ndarray:
    """One reference row per label: one-hot (GTD) or the preferred distribution (PKD)."""
    refs = np.zeros((labels.size, n_classes), dtype=np.float64)
    if mode == cfg.GTD:
        refs[np.arange(labels.size), labels] = 1.0
    elif mode == cfg.PKD:
        if params is None:
            raise ValidationError("PKD weighting requires PkdParams")
        if params.n_classes != n_classes:
            raise ValidationError(
                f"PkdParams for {params.n_classes} classes used with C={n_classes}"
            )
        refs[:] = (1.0 - params.h) / (n_classes - 1)
        refs[np.arange(labels.size), labels] = params.h
    else:
        raise ValidationError(f"weighting mode must be GTD or PKD, got {mode!r}")
    return refs


def compute_weights(
    bank: TeacherBank,
    labels,
    mode: str,
    params: PkdParams | None = None,
    weight_tau: float = 1.0,
) -> EnsembleWeights:
    """Score each teacher per sample against the reference distribution.

    Teacher logits are softened at weight_tau, scored by inverse
    cross-entropy to the mode's reference (one-hot for GTD, preferred
    distribution for PKD), then normalized across teachers so every
    sample's weights form a convex combination.
    """
    labels = validate_labels(labels, bank.c)
    if labels.size != bank.n:
        raise ValidationError(f"labels ({labels.size}) misaligned with bank rows ({bank.n})")
    refs = _reference_rows(labels, bank.c, mode, params)
    raw = np.empty((bank.n, bank.k), dtype=np.float64)
    for k, logits in enumerate(bank.teachers):
        raw[:, k] = _inverse_ce(refs, softmax_t(logits, weight_tau))
    return EnsembleWeights.from_raw(raw)


def assemble(bank: TeacherBank, weights: EnsembleWeights, assembly_tau: float) -> np.ndarray:
    """Weighted convex combination of softened teacher distributions."""
    if weights.normalized.shape != (bank.n, bank.k):
        raise ValidationError(
            f"weights shape {weights.normalized.shape} misaligned with bank ({bank.n}, {bank.k})"
        )
    row_sums = weights.normalized.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > WEIGHT_ROW_SUM_TOL:
        raise ValidationError("weights are not normalized (row sums deviate from 1)")
    out = np.zeros((bank.n, bank.c), dtype=np.float64)
    for k, logits in enumerate(bank.teachers):
        out += weights.normalized[:, k : k + 1] * softmax_t(logits, assembly_tau)
    return out


def build_targets(bank: TeacherBank, labels, config: cfg.DistillConfig) -> TargetSet:
    """Dispatch one strategy tag to its target construction.

    KD_SINGLE, AVG1 and AVG2: the elementwise mean of the K softened
    matrices, softened and added one teacher at a time (KD_SINGLE
    requires K=1). AVG1, distilled as K equal-weight tasks, also gets
    its entropy gap (see TargetSet), computed here once: each teacher is
    softened once, and its entropy row rides along as an extra column
    of the running mean, so the mean target and the mean entropy have
    the bits of two separate running means.
    GTD/PKD: reference-weighted convex assembly.
    Every result holds one N x C matrix, whatever K is.
    """
    strategy, tau = config.strategy, config.tau
    if strategy == cfg.KD_SINGLE and bank.k != 1:
        raise ValidationError(f"KD_SINGLE requires exactly one teacher, got {bank.k}")
    if strategy in (cfg.KD_SINGLE, cfg.AVG2):
        return TargetSet(strategy, [running_mean(softmax_t(t, tau) for t in bank.teachers)])
    if strategy == cfg.AVG1:

        def with_entropy(logits):
            p = softmax_t(logits, tau)
            return np.column_stack((p, entropy_rows(p)))

        means = running_mean(map(with_entropy, bank.teachers))
        target = np.ascontiguousarray(means[:, :-1])
        return TargetSet(strategy, [target], gap=entropy_rows(target) - means[:, -1])
    if strategy in (cfg.GTD, cfg.PKD):
        params = PkdParams(h=config.h, n_classes=bank.c) if strategy == cfg.PKD else None
        weights = compute_weights(bank, labels, strategy, params, config.weight_tau)
        return TargetSet(strategy, [assemble(bank, weights, tau)], weights)
    raise ValidationError(f"build_targets cannot handle strategy {strategy!r}")
