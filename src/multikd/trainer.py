"""The student: its model, its SGD step with analytic gradients, evaluation.

The student is a two-layer relu classifier, deliberately tiny: large
enough that soft targets have headroom over one-hot labels, small
enough that full finite-difference gradient checks stay cheap.

The total loss is alpha * cross-entropy + (1 - alpha) * distillation
term. The cross-entropy always uses plain (tau = 1) student
probabilities; only the distillation term is temperature-softened and
carries the tau^2 prefactor. Strategy NONE trains on the plain
cross-entropy alone (alpha does not apply; this is the baseline).

Training runs one step kernel, _step, with one mode: the forward pass,
one softmax for p1 and p_tau as a stack, the logit gradient of that
loss and the update. The step never evaluates the loss itself, which
no update reads; the plain formulas of the loss and its gradient, which
the step is tested against, live in tests/_oracles.py. The step's five
matrix products, two of them in the forward pass that forward shares,
are ndarray.dot calls: the same gemm as `@`, and the same bits, for
about half the dispatch cost of the matmul ufunc, which at batch size
4 is most of what a product costs. The reference loop in
tests/_oracles.py still multiplies with `@`. train() validates its
inputs once at entry and gathers each epoch's rows once, so a step
builds no per-batch objects.
A StudentModel is one contiguous float64 buffer whose fields are views,
so a step writes its gradients into a second model of the same layout,
updates all four parameters with one subtraction, and checks w1 and w2
with one reduction over one view; there is no copy of the model to write
back, and train trains the caller's model in place.
train reads no clock and returns nothing: the trained model is its one
result, and the wall time that reports carry is read in harness. A
per-epoch loss, if one is wanted, is for an observer of the run to
measure on the model after the epoch, off the step path.
Every distilling TargetSet holds one N x C matrix, so neither memory
nor per-step cost grows with the number of teachers. AVG1's is AVG2's
(see ensemble), so an AVG1 fit trains AVG2's student; the per-teacher
mean it stands for adds a constant to the loss, which moves no
gradient.
"""

from __future__ import annotations

import numpy as np

from . import config as cfg
from .datagen import validate_labels
from .ensemble import TargetSet
from .errors import NumericalError, ValidationError
from .numerics import softmax_rows
from .rng import SplitMix64, _uniforms

# logical_and.reduce(x, None) tests a whole array in one C call; ndarray.all
# goes through a Python-level wrapper first.
_all = np.logical_and.reduce


_FIELDS = ("w1", "w2", "b1", "b2")  # their order in a StudentModel's buffer


class StudentModel:
    """Parameters of logits = w2 @ relu(w1 @ x + b1) + b2, in one buffer.

    w1 is hidden x d_in, b1 hidden, w2 classes x hidden, b2 classes. The
    constructor copies w1, w2, b1, b2, as float64, into the one
    contiguous array data, in that order. The four fields are views of
    data, and so is weights, the w1 + w2 prefix. The constructor checks
    the four shapes against each other once, and a mismatch raises
    ValidationError naming the field. Assigning a field writes into its
    view (a wrong shape raises ValidationError), so the fields and data
    never diverge.
    """

    def __init__(self, w1, b1, w2, b2):
        parts = [np.asarray(part, dtype=np.float64) for part in (w1, w2, b1, b2)]
        w1, w2, b1, b2 = parts
        if w1.ndim != 2:
            raise ValidationError(f"w1 must be a hidden x d_in matrix, got shape {w1.shape}")
        if b1.shape != w1.shape[:1]:
            raise ValidationError(f"b1 must have shape {w1.shape[:1]}, got {b1.shape}")
        if w2.ndim != 2 or w2.shape[1] != w1.shape[0]:
            raise ValidationError(f"w2 must be a classes x {w1.shape[0]} matrix, got shape {w2.shape}")
        if b2.shape != w2.shape[:1]:
            raise ValidationError(f"b2 must have shape {w2.shape[:1]}, got {b2.shape}")
        data = np.concatenate([part.ravel() for part in parts])
        views, start = {"data": data}, 0
        for name, part in zip(_FIELDS, parts):
            views[name] = data[start : start + part.size].reshape(part.shape)
            start += part.size
        views["weights"] = data[: w1.size + w2.size]
        self.__dict__.update(views)

    def __setattr__(self, name: str, value) -> None:
        if name not in _FIELDS:
            raise AttributeError(f"StudentModel has no assignable field {name!r}")
        view = self.__dict__[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValidationError(f"{name} must have shape {view.shape}, got {value.shape}")
        view[...] = value

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[0]

    def copy(self) -> "StudentModel":
        return StudentModel(self.w1, self.b1, self.w2, self.b2)


def init_student(d_in: int, hidden_dim: int, n_classes: int, prng: SplitMix64) -> StudentModel:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero biases.

    Draw order is fixed (w1 row-major, then w2 row-major, one block of
    draws) so a given generator state always yields the same model.
    """
    if min(d_in, hidden_dim, n_classes) < 1:
        raise ValidationError("model dimensions must be positive")
    split = hidden_dim * d_in
    u = _uniforms(prng._block(split + n_classes * hidden_dim))
    w1 = ((2.0 * u[:split] - 1.0) * (1.0 / np.sqrt(d_in))).reshape(hidden_dim, d_in)
    w2 = ((2.0 * u[split:] - 1.0) * (1.0 / np.sqrt(hidden_dim))).reshape(n_classes, hidden_dim)
    return StudentModel(w1, np.zeros(hidden_dim), w2, np.zeros(n_classes))


def _forward_cached(model: StudentModel, features: np.ndarray):
    pre = features.dot(model.w1.T) + model.b1
    hidden = np.maximum(pre, 0.0)
    return hidden.dot(model.w2.T) + model.b2, hidden, pre


def forward(model: StudentModel, features) -> np.ndarray:
    """Student logits for a B x D feature matrix; NumericalError if one overflows."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"features must be a B x D matrix, got shape {arr.shape}")
    if arr.shape[1] != model.d_in:
        raise ValidationError(f"features have {arr.shape[1]} dims, model expects {model.d_in}")
    logits = _forward_cached(model, arr)[0]
    if not _all(np.isfinite(logits), None):
        raise NumericalError("non-finite model logits")
    return logits


def _rows(model: StudentModel, features, labels, target_set: TargetSet, config: cfg.DistillConfig) -> list:
    """Validate one training call and return its per-row step inputs.

    Every check the step kernel relies on runs here, once: the strategy
    tag, feature and label shapes, and the target shapes (TargetSet
    has checked each target row as a distribution, once, as built).
    The result is [features, onehot] for NONE, plus [target] for a
    distillation strategy; row n of each is sample n. onehot is a
    boolean N x C label mask.
    """
    if target_set.strategy != config.strategy:
        raise ValidationError(f"target set built for {target_set.strategy}, config says {config.strategy}")
    features = np.asarray(features, dtype=np.float64)
    labels = validate_labels(labels, model.n_classes)
    n = labels.size
    if features.ndim != 2 or features.shape[0] != n:
        raise ValidationError("features and labels misaligned")
    if features.shape[1] != model.d_in:
        raise ValidationError(f"features have {features.shape[1]} dims, model expects {model.d_in}")
    onehot = labels[:, None] == np.arange(model.n_classes)
    if config.strategy == cfg.NONE:
        return [features, onehot]
    target = np.asarray(target_set.targets[0], dtype=np.float64)
    if target.shape != (n, model.n_classes):
        raise ValidationError(
            f"target matrix {target.shape} misaligned with data ({n}, {model.n_classes})"
        )
    return [features, onehot, target]


def _step(model, grads, config, scales, features, onehot, target=None):
    """The student step on one batch of rows, as returned by _rows.

    Forward pass, softmax, logit gradient, the parameter gradients
    pushed through both layers into grads, a model of model's layout
    (relu takes the zero subgradient at exactly 0), then the SGD update
    of model.data. A distilling step softens the logits at scales, the
    2 x 1 x 1 [1.0, tau], in one call: softmax_rows works row by row and
    x / 1.0 is x, so the two slices are p1 and p_tau to the bit. The
    arithmetic is that of loss_gradient, then the w2, b2, w1, b1
    updates, bit for bit. The products are ndarray.dot calls, the two
    weight gradients written into grads through out=, where the
    reference loop uses `@`: dot reaches the same gemm with less
    dispatch. No finiteness check has a Python frame of its own. The
    loss is not computed: with finite logits and target rows
    that are distributions it is finite, and a softmax that is not
    finite makes the logit gradient non-finite, which is checked.
    """
    n = features.shape[0]
    logits, hidden, pre = _forward_cached(model, features)
    if not _all(np.isfinite(logits), None):
        raise NumericalError("non-finite student logits; training aborted")
    if target is None:
        g_logits = (softmax_rows(logits) - onehot) / n
    else:
        alpha, tau = config.alpha, config.tau
        p = softmax_rows(logits / scales)
        g_logits = alpha * ((p[0] - onehot) / n) + (1.0 - alpha) * tau * (p[1] - target) / n
    if not _all(np.isfinite(g_logits), None):
        raise NumericalError("non-finite logit gradient; training aborted")

    g_logits.T.dot(hidden, out=grads.w2)
    np.add.reduce(g_logits, axis=0, out=grads.b2)
    g_hidden = g_logits.dot(model.w2) * (pre > 0.0)
    g_hidden.T.dot(features, out=grads.w1)
    np.add.reduce(g_hidden, axis=0, out=grads.b1)
    data = model.data  # a local name: an augmented attribute assignment would run __setattr__
    data -= config.lr * grads.data
    if not _all(np.isfinite(model.weights), None):
        raise NumericalError("non-finite parameters after update; training aborted")


def train(
    model: StudentModel,
    features: np.ndarray,
    labels: np.ndarray,
    target_set: TargetSet,
    config: cfg.DistillConfig,
) -> None:
    """SGD over epochs * ceil(N / batch) steps, shuffled by config.seed.

    Inputs are validated once, here; each epoch gathers its rows in
    permutation order into the same buffers, which zip walks as views of
    whole batches, plus one step for a ragged tail. Each step updates
    model.data, so model is trained in place, and a NumericalError
    leaves it as the failing step made it; the gradients go into one
    copy of model, made here.

    Deterministic: the seed fixes the batch order, and every reduction
    runs in a fixed order, so the final parameters are bit-identical
    across runs. Returns None; the trained model is the result.
    """
    rows = _rows(model, features, labels, target_set, config)
    n = rows[0].shape[0]
    size = config.batch_size
    full = n - n % size
    scales = np.array([1.0, config.tau]).reshape(2, 1, 1)
    prng = SplitMix64(config.seed)
    grads = model.copy()
    shuffled = [np.empty_like(column) for column in rows]
    batches = [column[:full].reshape(-1, size, *column.shape[1:]) for column in shuffled]
    tail = [column[full:] for column in shuffled] if full < n else None
    for _ in range(config.epochs):
        order = np.array(prng.permutation(n), dtype=np.int64)
        for column, out in zip(rows, shuffled):
            # order is a permutation of range(n), so no index is ever
            # clipped; mode="raise" would gather through a temporary
            np.take(column, order, axis=0, out=out, mode="clip")
        for batch in zip(*batches):
            _step(model, grads, config, scales, *batch)
        if tail is not None:
            _step(model, grads, config, scales, *tail)


def evaluate(model: StudentModel, features, labels) -> float:
    """Top-1 accuracy; argmax over logits (softmax preserves the argmax)."""
    logits = forward(model, features)
    labels = validate_labels(labels, model.n_classes)
    if labels.size != logits.shape[0]:
        raise ValidationError("features and labels misaligned")
    return float(np.mean(np.argmax(logits, axis=1) == labels))
