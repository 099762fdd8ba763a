"""Probability kernels that assembly and training run.

Every routine here is a pure function of float64 arrays. Distributions
are rows. A probability floor EPS is applied only to arguments of log,
so the 0*log(0) = 0 convention survives while log(0) never occurs.

softmax_t checks its logits and temperature, then calls softmax_rows,
which the training step also calls directly. The other row functions
take checked arrays, 1-D or row-wise 2-D, and check nothing. Reductions
use numpy's fixed evaluation order, so results are bit-reproducible for
a fixed input order. The scalar references these kernels are tested
against (KL, probability-row checks) live in tests/_oracles.py.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

EPS = 1e-12


def validate_logit_row(values, name: str = "logits") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite (no NaN/Inf)")
    return arr


def validate_tau(tau: float) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValidationError(f"temperature must be a positive real, got {tau}")
    return tau


def softmax_t(logits, tau: float = 1.0) -> np.ndarray:
    """Temperature-softened softmax, stabilized by max subtraction.

    Works on a single row or row-wise on a matrix. Output rows sum to 1
    within 1e-12 and are invariant to adding a constant to the logits.
    """
    tau = validate_tau(tau)
    return softmax_rows(validate_logit_row(logits) / tau)


def softmax_rows(scaled: np.ndarray) -> np.ndarray:
    """Row-wise softmax of already-scaled, pre-validated logits (no checks)."""
    e = np.exp(scaled - np.maximum.reduce(scaled, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def running_mean(arrays) -> np.ndarray:
    """Elementwise mean of an iterable of equal-shape arrays.

    The arrays are added one at a time, in order, so only the running
    sum and the current array are held, whatever their number. That is
    also numpy's order for a mean of contiguous float64 arrays over the
    leading axis, so the result has the bits of np.mean(list(arrays), axis=0).
    """
    items = iter(arrays)
    first = next(items, None)
    if first is None:
        raise ValidationError("running_mean needs at least one array")
    total, count = np.array(first, dtype=np.float64), 1
    for item in items:
        total += item
        count += 1
    return total / count


def log_or_zero(p: np.ndarray) -> np.ndarray:
    """log(p) where p > 0 and 0 elsewhere, so that p * log(p) is 0 at 0."""
    return np.log(np.where(p > 0.0, p, 1.0))


def cross_entropy_rows(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Row-wise cross-entropy for pre-validated stacks (no checks)."""
    return -(target * np.log(np.maximum(pred, EPS))).sum(axis=-1)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats, with 0*log(0)=0 (no checks)."""
    return -(p * log_or_zero(p)).sum(axis=-1)
