"""Probability kernels that assembly and training run.

Every routine here is a pure function of float64 arrays. Distributions
are rows. A probability floor EPS is applied only to arguments of log,
so the 0*log(0) = 0 convention survives while log(0) never occurs.

The row functions take checked arrays whose rows run along the last
axis, and check nothing: TeacherBank checks the logits and DistillConfig
the temperatures, each once, as built, and both are frozen after.
softmax_rows is the one softmax: assembly calls it on a bank matrix
divided by a temperature, the training step on its logits divided by
the stacked temperatures [1, tau].
Reductions use numpy's fixed evaluation order, so results are
bit-reproducible for a fixed input order. The scalar references these
kernels are tested against (KL, entropy, log_or_zero, probability-row
checks) live in tests/_oracles.py.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


def softmax_rows(scaled: np.ndarray) -> np.ndarray:
    """Row-wise softmax of already-scaled, pre-validated logits (no checks).

    Rows run along the last axis, with any leading axes: a row's bits do
    not depend on the rows around it, so each slice of an S x B x C
    stack equals the softmax of that B x C slice alone. Stabilized by
    max subtraction: output rows sum to 1 within 1e-12 and are invariant
    to adding a constant to the logits.
    """
    # A max is exact in any order, so a tall matrix (rows >= 16 x columns)
    # takes its row max from a column-major copy, which numpy reduces as
    # whole columns: 12 us against 51 us for 1000 x 11 on an AVX-512 host.
    # Measured there, the copy pays from about 16 rows at 11 columns and
    # stops paying between 50 and 64 columns at 1000 rows; a training
    # step's 2 x 4 x C stack and a 1-D row keep the row-major reduce.
    # The copy is freed before exp, and the subtraction, exp and row sum
    # stay row-major, so neither the peak nor any bit changes.
    tall = scaled.shape[0] >= 16 * scaled.shape[-1]
    e = np.exp(scaled - np.maximum.reduce(
        np.asfortranarray(scaled) if tall else scaled, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def cross_entropy_rows(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Row-wise cross-entropy for pre-validated stacks (no checks)."""
    return -(target * np.log(np.maximum(pred, EPS))).sum(axis=-1)
