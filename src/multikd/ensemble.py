"""Assembly of several teachers' logits into one soft target.

Every strategy is one pass in `build_targets`: soften each teacher at
tau, in ascending teacher-id order, and add it to one N x C matrix.
KD_SINGLE, AVG1 and AVG2 add the teachers unweighted and divide the sum
by K. GTD and PKD first weight them: build a reference row per sample
that keeps mass h on the true class and spreads the rest evenly (PKD's
preferred distribution; GTD is h = 1, the one-hot ground truth), score
every teacher against it by inverse cross-entropy, and normalize the
scores across teachers; each softened teacher is then scaled in place
by its column of weights and added, a convex combination.

Everything happens offline on stored logits; no teacher model is ever
needed once its logits are dumped, so the number of teachers only
affects this one-shot assembly, never the training loop. Every strategy
yields one N x C target matrix, O(N*C) at any K. What grows with K is
the bank's logits, K*N*C floats, and for GTD and PKD one N x K weight
matrix: the scores are normalized in place, and only a bank listed out
of teacher-id order also gathers a copy of them to sum. By tracemalloc,
one PKD build at N=1000, C=11 from a bank in id order peaks at 2.04 MB
for K=200 and 8.47 MB for K=1000, whose weights take 8.0 MB (16.04 MB
listed out of id order); a GTD or PKD build at K=2 peaks at 5.1 N x C
matrices, and a KD_SINGLE, AVG1 or AVG2 build at 4.9 (0.43 MB) at
K=1, 2 or 200, as no softened teacher outlives its addition. These
figures hold with softmax_rows' column-major row max, whose copy is
freed before exp. AVG1 and AVG2 build the same matrix: AVG1's loss,
the mean of K per-teacher KL terms, is AVG2's plus an entropy term that
is constant in the student's logits, so the two strategies train the
same student, and a run builds their mean once (harness._cell_targets).
TeacherBank and DistillConfig are checked once, as they are built, and
frozen after, so build_targets checks neither again: it softens the
teachers with the unchecked numerics.softmax_rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config as cfg
from .datagen import validate_labels
from .errors import NumericalError, ValidationError
from .numerics import EPS, cross_entropy_rows, softmax_rows


@dataclass(frozen=True)
class TeacherBank:
    """Aligned logit matrices from K teachers; row n is sample n everywhere.

    Checked once, as built, and frozen after: `teachers` holds read-only
    views, not copies, of the float64 arrays given; `teacher_ids` is a tuple.
    """

    teachers: tuple[np.ndarray, ...]
    teacher_ids: tuple[str, ...]

    def __post_init__(self):
        ids, views = tuple(self.teacher_ids), []
        if len(self.teachers) == 0:
            raise ValidationError("a teacher bank needs at least one teacher")
        if len(ids) != len(self.teachers):
            raise ValidationError("teacher_ids must match teachers in length")
        for i, (ident, mat) in enumerate(zip(ids, self.teachers)):
            if ident in ids[:i]:
                raise ValidationError(f"teacher id {ident!r} is given twice")
            view = np.asarray(mat, dtype=np.float64).view()
            view.flags.writeable = False
            if view.ndim != 2 or view.size == 0:
                raise ValidationError(f"teacher {ident!r}: logits must be a non-empty N x C matrix")
            if not np.isfinite(view).all():
                raise ValidationError(f"teacher {ident!r}: logits must be finite")
            if views and view.shape != views[0].shape:
                raise ValidationError(
                    f"teacher {ident!r}: shape {view.shape} disagrees with {views[0].shape}"
                )
            views.append(view)
        object.__setattr__(self, "teachers", tuple(views))
        object.__setattr__(self, "teacher_ids", ids)

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
class TargetSet:
    """Soft targets for one strategy: none for NONE, else one N x C matrix.

    GTD and PKD also keep their N x K teacher weights for inspection.
    """

    strategy: str
    targets: list[np.ndarray] = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.strategy not in cfg.STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.strategy == cfg.NONE:
            if self.targets:
                raise ValidationError("strategy NONE carries no targets")
        elif len(self.targets) != 1:
            raise ValidationError(f"strategy {self.strategy} carries exactly one target matrix")
        elif not np.isfinite(self.targets[0]).all():  # a temperature can overflow finite logits
            raise NumericalError(f"non-finite {self.strategy} targets; assembly aborted")


def _inverse_ce(refs: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """Row-wise 1 / CE(ref, dist), the cross-entropy floored at 1e-12.

    The floor keeps a teacher that matches its reference exactly at a
    finite, dominant weight. A one-hot reference has zero entropy, so
    there this is the inverse of KL(ref || dist), bit for bit.
    """
    return 1.0 / np.maximum(cross_entropy_rows(refs, dists), EPS)


def _reference_rows(labels: np.ndarray, n_classes: int, h: float) -> np.ndarray:
    """One reference row per label: mass h on it, (1 - h) / (C - 1) on every other class.

    The spread is written only for h < 1, so GTD's h = 1 row is exactly
    one-hot, also at C = 1.
    """
    refs = np.zeros((labels.size, n_classes), dtype=np.float64)
    if h < 1.0:
        refs[:] = (1.0 - h) / (n_classes - 1)
    refs[np.arange(labels.size), labels] = h
    return refs


def _teacher_scores(bank: TeacherBank, labels, h: float, weight_tau: float) -> np.ndarray:
    """N x K raw scores: each teacher, softened at weight_tau, by inverse CE to its reference row."""
    labels = validate_labels(labels, bank.c)
    if labels.size != bank.n:
        raise ValidationError(f"labels ({labels.size}) misaligned with bank rows ({bank.n})")
    refs = _reference_rows(labels, bank.c, h)
    raw = np.empty((bank.n, bank.k), dtype=np.float64)
    for k, logits in enumerate(bank.teachers):
        raw[:, k] = _inverse_ce(refs, softmax_rows(logits / weight_tau))
    return raw


def _check_teacher_count(strategy: str, k: int) -> None:
    """Refuse KD_SINGLE with other than one teacher; `k` is the count given."""
    if strategy == cfg.KD_SINGLE and k != 1:
        raise ValidationError(f"KD_SINGLE requires exactly one teacher, got {k}")


def build_targets(bank: TeacherBank, labels, config: cfg.DistillConfig) -> TargetSet:
    """One strategy's target: each teacher softened at tau and added to one N x C matrix.

    KD_SINGLE, AVG1 and AVG2 add the softened matrices unweighted and
    divide the sum by K in place, their elementwise mean (KD_SINGLE
    requires K=1). AVG1 distills the K teachers as equal-weight tasks;
    that loss differs from AVG2's only by a constant in the student's
    logits, so AVG1 takes AVG2's target, bit for bit.
    GTD/PKD first compute their N x K reference weights, GTD at h = 1,
    and scale each softened matrix by its column of weights, in place,
    before adding it. PKD
    needs h in (1/C, 1]; GTD ignores config.h.
    Every result holds one N x C matrix, whatever K is. Every sum over
    teachers runs in ascending teacher-id order, whatever order the bank
    lists them in, so a set of teachers gives one target, bit for bit;
    only the weights' columns follow the listed order.
    """
    strategy, tau = config.strategy, config.tau
    _check_teacher_count(strategy, bank.k)
    order = sorted(range(bank.k), key=bank.teacher_ids.__getitem__)
    if strategy in (cfg.KD_SINGLE, cfg.AVG1, cfg.AVG2):
        weights = None
    elif strategy in (cfg.GTD, cfg.PKD):
        h = 1.0
        if strategy == cfg.PKD:
            h = config.h
            if bank.c < 2:
                raise ValidationError("preferred distribution needs at least 2 classes")
            if not (1.0 / bank.c) < h <= 1.0:
                raise ValidationError(f"h must be in (1/{bank.c}, 1], got {h}")
        # the scores become the weights in place, so one N x K array is
        # live; only a bank listed out of id order gathers a copy to sum
        weights = _teacher_scores(bank, labels, h, config.weight_tau)
        weights /= (weights if order == list(range(bank.k)) else weights[:, order]).sum(axis=1, keepdims=True)
    else:
        raise ValidationError(f"build_targets cannot handle strategy {strategy!r}")
    target = np.zeros((bank.n, bank.c), dtype=np.float64)
    for k in order:
        softened = softmax_rows(bank.teachers[k] / tau)
        if weights is not None:
            softened *= weights[:, k : k + 1]  # a product commutes exactly: no temporary, same bits
        target += softened
        del softened  # else it stays live beside the next teacher's
    if weights is None:
        target /= bank.k
    return TargetSet(strategy, [target], weights)
