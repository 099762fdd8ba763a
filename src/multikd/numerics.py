"""Probability and divergence kernels.

Every routine here is a pure function of float64 arrays. Distributions
are rows: a valid probability row is nonnegative and sums to 1 within
1e-9. A probability floor EPS is applied only to arguments of log, so
the 0*log(0) = 0 convention survives while log(0) never occurs.

Row functions accept 1-D arrays; softmax_t also broadcasts over the
rows of a 2-D array. Reductions use numpy's fixed evaluation order, so
results are bit-reproducible for a fixed input order.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

EPS = 1e-12
PROB_SUM_TOL = 1e-9


def as_float_array(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def validate_logit_row(values, name: str = "logits") -> np.ndarray:
    arr = as_float_array(values, name)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite (no NaN/Inf)")
    return arr


def validate_prob_row(values, name: str = "probs") -> np.ndarray:
    """Check nonnegativity and unit sum (within 1e-9) of a distribution row."""
    arr = validate_logit_row(values, name)
    if (arr < 0.0).any():
        raise ValidationError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
        raise ValidationError(f"{name} rows must sum to 1 within {PROB_SUM_TOL}")
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


def kl_divergence(q, p) -> float:
    """KL(q || p) = sum q*log(q/p) with 0*log(0)=0 and p floored at EPS."""
    return float(kl_rows(*validate_prob_pair(q, p, "q", "p")))


def validate_prob_pair(a, b, name_a: str, name_b: str):
    """Two validated probability rows (see validate_prob_row) of one shape."""
    a = validate_prob_row(a, name_a)
    b = validate_prob_row(b, name_b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def log_or_zero(p: np.ndarray) -> np.ndarray:
    """log(p) where p > 0 and 0 elsewhere, so that p * log(p) is 0 at 0."""
    return np.log(np.where(p > 0.0, p, 1.0))


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL for pre-validated stacked distributions (no checks)."""
    log_q = log_or_zero(q)
    log_p = np.log(np.maximum(p, EPS))
    return (q * (log_q - log_p)).sum(axis=-1)


def cross_entropy_dist(target, pred) -> float:
    """-sum target*log(pred) with pred floored at EPS."""
    return float(cross_entropy_rows(*validate_prob_pair(target, pred, "target", "pred")))


def cross_entropy_rows(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Row-wise cross-entropy for pre-validated stacks (no checks)."""
    return -(target * np.log(np.maximum(pred, EPS))).sum(axis=-1)


def entropy(p) -> float:
    """Shannon entropy -sum p*log(p) in nats, with 0*log(0)=0."""
    p = validate_prob_row(p)
    return float(entropy_rows(p))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    return -(p * log_or_zero(p)).sum(axis=-1)


def top1(p) -> int:
    """Index of the largest entry; ties break toward the lowest index."""
    arr = as_float_array(p, "row")
    if arr.ndim != 1:
        raise ValidationError("top1 expects a single row")
    return int(np.argmax(arr))
