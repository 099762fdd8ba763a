"""Seeded two-modality synthetic classification data.

Each class gets a latent center in [0.2, 0.8]^D; samples are the
center plus Gaussian noise, clamped to [0, 1]. The first D/2
coordinates form modality A and the last D/2 form modality B, so the
two carry complementary information by construction. The student-side
view is modality A after darkening and gamma correction; all three
views of a split share labels and sample order.

Train and test are drawn from distinct derived seed streams, so the
splits are disjoint by construction and each is regenerable bit-exactly
from (seed, parameters) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .preprocess import (
    DARK_FACTOR_DEFAULT,
    GAMMA_DEFAULT,
    QUANT_LEVELS_DEFAULT,
    _check_darken,
    _check_gamma,
    darken,
    gamma_correct,
)
from .rng import SplitMix64, _mul_high, _uniforms, derive_seed

MODALITY_A = "A"
MODALITY_B = "B"
MODALITY_A_DARK = "A_dark"
MODALITIES = (MODALITY_A, MODALITY_B, MODALITY_A_DARK)
SPLITS = ("train", "test")
# The SyntheticData field holding each (split, modality) view.
_VIEW_FIELDS = {
    ("train", MODALITY_A): "train_a",
    ("train", MODALITY_B): "train_b",
    ("train", MODALITY_A_DARK): "train_dark",
    ("test", MODALITY_A): "test_a",
    ("test", MODALITY_B): "test_b",
    ("test", MODALITY_A_DARK): "test_dark",
}

CENTER_LO = 0.2
CENTER_HI = 0.8
# Samples drawn per block: bounds the draw temporaries whatever the split size.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class DataParams:
    n_train: int = 2000
    n_test: int = 1000
    n_classes: int = 11
    dim: int = 20
    noise: float = 0.15
    dark_factor: float = DARK_FACTOR_DEFAULT
    quant_levels: int = QUANT_LEVELS_DEFAULT
    gamma: float = GAMMA_DEFAULT

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValidationError("dim must be an even integer >= 2 (two modality halves)")
        if self.n_train < 1 or self.n_test < 1:
            raise ValidationError("split sizes must be positive")
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise ValidationError(f"noise must be nonnegative and finite, got {self.noise}")
        _check_gamma(self.gamma)
        _check_darken(self.dark_factor, self.quant_levels)


def validate_labels(labels, n_classes: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("labels must be a non-empty 1-D vector")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("labels must be integers")
    if (arr < 0).any() or (arr >= n_classes).any():
        raise ValidationError(f"labels must lie in [0, {n_classes})")
    return arr.astype(np.int64)


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    modality: str
    split: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = validate_labels(self.labels, self.n_classes)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValidationError("features and labels misaligned")
        if self.modality not in MODALITIES:
            raise ValidationError(f"unknown modality tag {self.modality!r}")
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split tag {self.split!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class SyntheticData:
    """All six views: {train, test} x {A, B, A_dark}."""

    train_a: Dataset
    train_b: Dataset
    train_dark: Dataset
    test_a: Dataset
    test_b: Dataset
    test_dark: Dataset

    @classmethod
    def from_views(cls, views: dict) -> "SyntheticData":
        """The six views of a {(split, modality): Dataset} mapping."""
        return cls(**{name: views[key] for key, name in _VIEW_FIELDS.items()})

    def view(self, split: str, modality: str) -> Dataset:
        key = _VIEW_FIELDS.get((split, modality))
        if key is None:
            raise ValidationError(f"no view for split={split!r} modality={modality!r}")
        return getattr(self, key)


def _scalar_map(fn, x: np.ndarray) -> np.ndarray:
    """fn of every element of x, one Python call each, in x's shape."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _draw_split(stream: SplitMix64, centers: np.ndarray, n: int, noise: float):
    """n samples, a row of 1 + dim draws each, in blocks of up to _BLOCK_ROWS rows.

    Column 0 is the label draw, an integer below n_classes; the others are the
    dim/2 Box-Muller pairs of uniforms. log, cos and sin stay scalar
    math calls: numpy's vectorized versions may round differently.
    """
    n_classes, dim = centers.shape
    features = np.empty((n, dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - lo)
        block = stream._block(rows * (1 + dim)).reshape(rows, 1 + dim)
        labels[lo : lo + rows] = _mul_high(block[:, 0], n_classes)
        u = _uniforms(block[:, 1:])
        r = np.sqrt(-2.0 * _scalar_map(math.log, 1.0 - u[:, 0::2]))
        angle = 2.0 * math.pi * u[:, 1::2]
        out = np.take(centers, labels[lo : lo + rows], axis=0, out=features[lo : lo + rows])
        out[:, 0::2] += noise * (r * _scalar_map(math.cos, angle))
        out[:, 1::2] += noise * (r * _scalar_map(math.sin, angle))
    np.clip(features, 0.0, 1.0, out=features)
    return features, labels


def gen_dataset(seed: int, params: DataParams | None = None) -> SyntheticData:
    """Generate the six aligned dataset views for one seed.

    Derived streams: index 0 for class centers, 1 for the train split,
    2 for the test split. Per sample the draw order is label first,
    then dim/2 Box-Muller pairs, which pins the bit layout of the data.
    """
    params = params or DataParams()
    centers = CENTER_LO + (CENTER_HI - CENTER_LO) * _uniforms(
        SplitMix64(derive_seed(seed, 0))._block(params.n_classes * params.dim)
    ).reshape(params.n_classes, params.dim)

    half = params.dim // 2
    out = {}
    for split, n, stream_index in (("train", params.n_train, 1), ("test", params.n_test, 2)):
        features, labels = _draw_split(
            SplitMix64(derive_seed(seed, stream_index)), centers, n, params.noise
        )
        a = features[:, :half]
        b = features[:, half:]
        dark = gamma_correct(
            darken(a, params.dark_factor, params.quant_levels), params.gamma
        )
        # each Dataset converts the labels to a new int64 array of its own
        out[(split, MODALITY_A)] = Dataset(a, labels, params.n_classes, MODALITY_A, split)
        out[(split, MODALITY_B)] = Dataset(b, labels, params.n_classes, MODALITY_B, split)
        out[(split, MODALITY_A_DARK)] = Dataset(dark, labels, params.n_classes, MODALITY_A_DARK, split)
    return SyntheticData.from_views(out)
