"""Intensity preprocessing: synthetic darkening and gamma correction.

Inputs are normalized intensities in [0, 1]. Darkening is a
multiplicative dim followed by quantization, which makes the
information loss irreversible; gamma correction brightens but cannot
undo the quantization.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

DARK_FACTOR_DEFAULT = 0.2
QUANT_LEVELS_DEFAULT = 256
GAMMA_DEFAULT = 3.0


def _check_unit_interval(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValidationError(f"{name} must lie in [0, 1]; normalize first")
    return arr


def _check_darken(factor: float, quant_levels: int) -> tuple[float, int]:
    """`factor` in (0, 1] and `quant_levels` >= 2, as the float and int darkening uses."""
    factor = float(factor)
    if not (0.0 < factor <= 1.0):
        raise ValidationError(f"darken factor must be in (0, 1], got {factor}")
    levels = int(quant_levels)
    if levels < 2:
        raise ValidationError(f"quant_levels must be >= 2, got {levels}")
    return factor, levels


def _check_gamma(gamma: float) -> float:
    """`gamma` positive and finite, as the float gamma correction uses."""
    gamma = float(gamma)
    # isfinite rejects NaN, which compares false with everything
    if not (np.isfinite(gamma) and gamma > 0.0):
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    return gamma


def gamma_correct(values, gamma: float = GAMMA_DEFAULT) -> np.ndarray:
    """Elementwise x -> x**(1/gamma) on [0, 1] intensities."""
    arr = _check_unit_interval(values, "intensities")
    return np.power(arr, 1.0 / _check_gamma(gamma))


def darken(
    values,
    factor: float = DARK_FACTOR_DEFAULT,
    quant_levels: int = QUANT_LEVELS_DEFAULT,
) -> np.ndarray:
    """Dim by `factor` and quantize to `quant_levels` levels on [0, 1].

    Output is round(x * factor * (L-1)) / (L-1); rounding is IEEE
    half-to-even so the result is platform-reproducible.
    """
    arr = _check_unit_interval(values, "intensities")
    factor, levels = _check_darken(factor, quant_levels)
    scale = float(levels - 1)
    return np.rint(arr * factor * scale) / scale
