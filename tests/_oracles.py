"""Independent oracles and the reference math the program is held to.

The dec_* routines re-evaluate the exact float64 inputs with 50-digit
decimal arithmetic and plain term-by-term summation, sharing no code
with the implementation under test.
soften is the temperature softmax the references use, softmax_rows of
the logits over tau, as assembly computes it from a checked bank.
row_major_softmax is softmax_rows with every reduction over the rows as
stored, the standard for its column-major row max, and
reference_build_targets is the assembly loop built on it, each weighted
teacher added as a product temporary: the standard for build_targets'
bits.
log_or_zero, kl_rows, entropy_rows, validate_prob_row and the losses
ce_loss, kd_loss, avg1_loss, total_loss with its logit gradient
loss_gradient are the plain formulas of the distillation objective.
total_loss gives AVG1 the loss of its one target matrix, which is
AVG2's: avg1_loss, the mean of the per-teacher losses, exceeds it by
tau^2 times the mean entropy gap H(mean) - mean_k H(t_k), a constant in
the logits. The program runs none of them: its step kernel computes the
logit gradient alone, never the loss, and is tested against them.
reference_train is the student SGD loop written step by step from
loss_gradient, the standard the fused training step is held to; its
forward pass, reference_forward, and every product of its step go
through `@`, the matmul the program's ndarray.dot calls are held to.
step_gradients and checked_train are the two entries into the program
here: the (w1, b1, w2, b2) gradients one real step writes, taken on a
copy, for the tests that hold them to reference_step or finite
differences, and the epoch loop that takes every step with its checks,
the standard train replays a failing epoch under.
uniform, below and gauss_pair are the scalar draws, one next_u64()
call at a time (gauss_pair is the Box-Muller transform of two uniform
draws). reference_permutation is the scalar Fisher-Yates shuffle, one
below() draw per swap, the standard for SplitMix64.permutation's
batched draws. reference_gen_dataset and reference_init_student draw
the synthetic data and a student's initial weights one scalar draw at
a time: the standard for their block draws.
reference_matrix_rows and reference_dataset_rows parse a file body one
line at a time, as the loaders did before they converted rows in bulk:
the standard for the block parser's values and diagnostics.
reference_load parses a whole matrix file that way, naming each line by
its number in the file as iterating over the file counts them.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

from multikd import config as cfg
from multikd.datagen import CENTER_HI, CENTER_LO, validate_labels
from multikd.ensemble import TargetSet, _inverse_ce, _reference_rows
from multikd.errors import FormatError, ValidationError
from multikd.numerics import EPS, softmax_rows
from multikd.rng import SplitMix64, derive_seed
from multikd.trainer import _rows, _step

getcontext().prec = 50


def _d(x) -> Decimal:
    return Decimal(float(x))  # exact binary-to-decimal conversion


def dec_softmax(logits, tau):
    exps = [(_d(x) / _d(tau)).exp() for x in logits]
    total = sum(exps)
    return tuple(float(e / total) for e in exps)


def dec_kl(q, p):
    total = Decimal(0)
    for a, b in zip(q, p):
        if a > 0.0:
            total += _d(a) * (_d(a).ln() - _d(b).ln())
    return float(total)


def dec_cross_entropy(target, pred):
    total = Decimal(0)
    for a, b in zip(target, pred):
        if a != 0.0:
            total -= _d(a) * _d(b).ln()
    return float(total)


PROB_SUM_TOL = 1e-9


def soften(logits, tau=1.0) -> np.ndarray:
    """Row-wise softmax of logits at temperature tau: softmax_rows(logits / tau)."""
    return softmax_rows(np.asarray(logits, dtype=np.float64) / tau)


def row_major_softmax(scaled) -> np.ndarray:
    """Row-wise softmax of scaled logits, its row max and row sum reduced as stored."""
    e = np.exp(scaled - np.maximum.reduce(scaled, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def reference_build_targets(bank, labels, config):
    """(target, weights) of build_targets from row_major_softmax.

    GTD and PKD score each teacher at weight_tau against its reference
    row and divide the scores by their row sums, each added in ascending
    id order over a row-major row, so every listing of one set of
    teachers divides by the same bits. Then each teacher, softened at
    tau and in ascending id order, is added to one N x C matrix, times
    its column of weights as a new product, or unweighted and the sum
    divided by K.
    """
    order = sorted(range(bank.k), key=bank.teacher_ids.__getitem__)
    weights = None
    if config.strategy in (cfg.GTD, cfg.PKD):
        refs = _reference_rows(np.asarray(labels), bank.c, 1.0 if config.strategy == cfg.GTD else config.h)
        raw = np.empty((bank.n, bank.k))
        for k, logits in enumerate(bank.teachers):
            raw[:, k] = _inverse_ce(refs, row_major_softmax(logits / config.weight_tau))
        weights = raw / np.ascontiguousarray(raw[:, order]).sum(axis=1, keepdims=True)
    target = np.zeros((bank.n, bank.c))
    for k in order:
        softened = row_major_softmax(bank.teachers[k] / config.tau)
        target += softened if weights is None else weights[:, k : k + 1] * softened
    if weights is None:
        target /= bank.k
    return target, weights


def validate_prob_row(values, name: str = "probs") -> np.ndarray:
    """Check a distribution row: non-empty, finite, nonnegative, unit sum within 1e-9."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite (no NaN/Inf)")
    if (arr < 0.0).any():
        raise ValidationError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
        raise ValidationError(f"{name} rows must sum to 1 within {PROB_SUM_TOL}")
    return arr


def log_or_zero(p: np.ndarray) -> np.ndarray:
    """log(p) where p > 0 and 0 elsewhere, so that p * log(p) is 0 at 0."""
    return np.log(np.where(p > 0.0, p, 1.0))


def kl_rows(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise KL(q || p) with 0*log(0)=0 and p floored at EPS (no checks)."""
    log_q = log_or_zero(q)
    log_p = np.log(np.maximum(p, EPS))
    return (q * (log_q - log_p)).sum(axis=-1)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats, with 0*log(0)=0 (no checks)."""
    return -(p * log_or_zero(p)).sum(axis=-1)


def ce_loss(student_probs, labels) -> float:
    """Mean negative log-probability of the true class."""
    probs = np.asarray(student_probs, dtype=np.float64)
    labels = validate_labels(labels, probs.shape[1])
    if labels.size != probs.shape[0]:
        raise ValidationError("labels misaligned with probability rows")
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, EPS))))


def kd_loss(student_logits, target, tau: float) -> float:
    """tau^2 times the mean KL from the target rows to the softened student."""
    logits = np.asarray(student_logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ValidationError(f"dimension mismatch: logits {logits.shape} vs target {target.shape}")
    student = soften(logits, tau)
    return float(tau * tau * np.mean(kl_rows(target, student)))


def avg1_loss(student_logits, targets, tau: float) -> float:
    """Equal-weight multi-task distillation: mean of the per-teacher losses."""
    if len(targets) == 0:
        raise ValidationError("avg1_loss needs at least one target matrix")
    return float(np.mean([kd_loss(student_logits, t, tau) for t in targets]))


def total_loss(student_logits, labels, target_set, config) -> float:
    """alpha * CE + (1 - alpha) * KD, KD against the target set's one matrix."""
    logits = np.asarray(student_logits, dtype=np.float64)
    ce = ce_loss(soften(logits, 1.0), labels)
    if config.strategy == cfg.NONE:
        return ce
    kd = kd_loss(logits, target_set.targets[0], config.tau)
    return config.alpha * ce + (1.0 - config.alpha) * kd


def loss_gradient(student_logits, labels, target_set, config) -> np.ndarray:
    """Exact gradient of total_loss with respect to the student logits.

    Per row: alpha * (p1 - onehot) / N for the cross-entropy part, plus
    (1 - alpha) * tau * (p_tau - target) / N for the distillation part
    (the tau^2 prefactor and the 1/tau softmax chain rule leave one tau).
    """
    logits = np.asarray(student_logits, dtype=np.float64)
    labels = validate_labels(labels, logits.shape[1])
    n = logits.shape[0]
    p1 = soften(logits, 1.0)
    ce_grad = p1.copy()
    ce_grad[np.arange(n), labels] -= 1.0
    ce_grad /= n
    if config.strategy == cfg.NONE:
        return ce_grad
    p_tau = soften(logits, config.tau)
    kd_grad = (1.0 - config.alpha) * config.tau * (p_tau - target_set.targets[0]) / n
    return config.alpha * ce_grad + kd_grad


TWO64 = float(1 << 64)


def uniform(prng) -> float:
    """Uniform real in [0, 1): next_u64 / 2^64."""
    return prng.next_u64() / TWO64


def below(prng, n: int) -> int:
    """Uniform integer in [0, n) via the multiply-shift trick."""
    if n <= 0:
        raise ValueError("n must be positive")
    return (prng.next_u64() * n) >> 64


def gauss_pair(prng) -> tuple[float, float]:
    """Two standard normals from two consecutive uniform draws.

    Uses log(1 - u1), which never sees zero because u1 < 1.
    """
    u1 = uniform(prng)
    u2 = uniform(prng)
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def fd_gradient(fn, x, step=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped.flat[i] = x.flat[i] + step
        hi = fn(bumped)
        bumped.flat[i] = x.flat[i] - step
        lo = fn(bumped)
        grad.flat[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def batch_targets(target_set, idx):
    """The rows `idx` of a target set's matrix, if it has one."""
    return TargetSet(target_set.strategy, [t[idx] for t in target_set.targets])


def reference_forward(model, x):
    """The student's (logits, hidden, pre), each product through `@`."""
    pre = x @ model.w1.T + model.b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ model.w2.T + model.b2, hidden, pre


def reference_step(model, x, y, targets, config):
    """One plain SGD step on a batch, in place; return its gradients.

    Runs the forward pass, takes the logit gradient from loss_gradient,
    pushes it through both layers, then updates w2, b2, w1, b1 in that
    order. The gradients are the (w1, b1, w2, b2) tuple.
    """
    logits, hidden, pre = reference_forward(model, x)
    g = loss_gradient(logits, y, targets, config)
    g_w2 = g.T @ hidden
    g_b2 = g.sum(axis=0)
    g_hidden = (g @ model.w2) * (pre > 0.0)
    g_w1 = g_hidden.T @ x
    g_b1 = g_hidden.sum(axis=0)
    model.w2 -= config.lr * g_w2
    model.b2 -= config.lr * g_b2
    model.w1 -= config.lr * g_w1
    model.b1 -= config.lr * g_b1
    return g_w1, g_b1, g_w2, g_b2


def step_gradients(model, features, labels, target_set, config):
    """The (w1, b1, w2, b2) gradients that one training step over all rows,
    in order, writes into its grads buffer; it steps a copy, so model is
    left unchanged."""
    probe, grads = model.copy(), model.copy()
    scales = np.array([1.0, config.tau]).reshape(2, 1, 1)  # as train divides the logits
    _step(probe, grads, config, scales, *_rows(probe, features, labels, target_set, config))
    return grads.w1, grads.b1, grads.w2, grads.b2


def reference_train(model, features, labels, target_set, config, until_nonfinite=False):
    """Train `model` in place, one plain step at a time.

    Per batch: gather the rows and take one reference_step. With
    until_nonfinite, stop after the first update that leaves any of
    model.data non-finite, the step at which train raises.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.size
    prng = SplitMix64(config.seed)
    for _ in range(config.epochs):
        order = np.array(prng.permutation(n), dtype=np.int64)
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            x, y, targets = features[idx], labels[idx], batch_targets(target_set, idx)
            reference_step(model, x, y, targets, config)
            if until_nonfinite and not np.isfinite(model.data).all():
                return


def checked_train(model, features, labels, target_set, config):
    """Train `model` in place, one checked _step call per batch.

    Every step checks its logits, its logit gradient and its buffer,
    so the first failing check raises at its own step. Each batch is
    gathered by indexing the epoch's permutation, as reference_train
    does: the standard for the error a failing train raises, the step
    it raises at and the model bytes it leaves.
    """
    rows = _rows(model, features, labels, target_set, config)
    n = rows[0].shape[0]
    scales = np.array([1.0, config.tau]).reshape(2, 1, 1)  # as train divides the logits
    grads = model.copy()
    prng = SplitMix64(config.seed)
    for _ in range(config.epochs):
        order = np.array(prng.permutation(n), dtype=np.int64)
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            _step(model, grads, config, scales, *[column[idx] for column in rows], checked=True)


def reference_permutation(prng, n):
    """Fisher-Yates shuffle of range(n), one below(prng, i + 1) draw per swap."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = below(prng, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def reference_gen_dataset(seed, params):
    """{split: (features, labels)} of gen_dataset, before the views are cut.

    Class centers from stream 0, then per split (train from stream 1,
    test from stream 2) per sample: the label, then dim/2 Box-Muller
    pairs, clamped to [0, 1].
    """
    center_stream = SplitMix64(derive_seed(seed, 0))
    centers = np.empty((params.n_classes, params.dim))
    for c in range(params.n_classes):
        for j in range(params.dim):
            centers[c, j] = CENTER_LO + (CENTER_HI - CENTER_LO) * uniform(center_stream)
    out = {}
    for split, n, index in (("train", params.n_train, 1), ("test", params.n_test, 2)):
        stream = SplitMix64(derive_seed(seed, index))
        features = np.empty((n, params.dim))
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            labels[i] = below(stream, params.n_classes)
            for j in range(0, params.dim, 2):
                g1, g2 = gauss_pair(stream)
                features[i, j] = centers[labels[i], j] + params.noise * g1
                features[i, j + 1] = centers[labels[i], j + 1] + params.noise * g2
        out[split] = (np.clip(features, 0.0, 1.0), labels)
    return out


def reference_init_student(d_in, hidden_dim, n_classes, prng):
    """(w1, w2) of init_student, one uniform() draw per weight, w1 first, row-major."""
    def uniform_matrix(rows, columns, bound):
        out = np.empty((rows, columns))
        for i in range(rows):
            for j in range(columns):
                out[i, j] = (2.0 * uniform(prng) - 1.0) * bound
        return out

    return (uniform_matrix(hidden_dim, d_in, 1.0 / np.sqrt(d_in)),
            uniform_matrix(n_classes, hidden_dim, 1.0 / np.sqrt(hidden_dim)))


def teachers_in_id_order(bank):
    """The bank's logit matrices in ascending teacher-id order, the order build_targets sums in."""
    return [bank.teachers[k] for k in sorted(range(bank.k), key=lambda k: bank.teacher_ids[k])]


def _reference_float_row(line, width, path, lineno):
    tokens = line.split()
    if len(tokens) != width:
        raise FormatError(
            f"{path}:{lineno}: column count mismatch (expected {width}, got {len(tokens)})"
        )
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: malformed number: {exc}") from None
    row = np.array(values, dtype=np.float64)
    if not np.isfinite(row).all():
        raise FormatError(f"{path}:{lineno}: non-finite value")
    return row


def reference_matrix_rows(body, width, path, first_lineno=2):
    """A float matrix body parsed line by line; raises at the first faulty line."""
    rows = np.empty((len(body), width), dtype=np.float64)
    for i, line in enumerate(body):
        rows[i] = _reference_float_row(line, width, path, first_lineno + i)
    return rows


def _reference_dataset_row(line, d, c, path, lineno):
    tokens = line.split()
    if len(tokens) != d + 1:
        raise FormatError(f"{path}:{lineno}: column count mismatch (expected {d} floats + label)")
    features = _reference_float_row(" ".join(tokens[:d]), d, path, lineno)
    try:
        label = int(tokens[d])
    except ValueError:
        raise FormatError(f"{path}:{lineno}: malformed label {tokens[d]!r}") from None
    if not 0 <= label < c:
        raise FormatError(f"{path}:{lineno}: label {label} out of range [0, {c})")
    return features, label


def reference_dataset_rows(body, d, c, path):
    """A dataset body parsed line by line: (features, labels)."""
    n = len(body)
    features = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for i, line in enumerate(body):
        features[i], labels[i] = _reference_dataset_row(line, d, c, path, i + 2)
    return features, labels


def reference_load(kind, path):
    """The matrices of a matrix file of `kind`, parsed one line at a time.

    The dimensions come from the magic line, which must be well formed.
    Lines are counted at "\n" in the text `open` yields, and blank lines
    after the magic line are skipped. Returns the list of matrices in
    file order (w1, b1, w2, b2 for a model), then the labels for a
    dataset; raises FormatError as the loaders do for a row count, a
    column count, a number or a label at fault.
    """
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    dims = {}
    for token in lines[0].split()[2:]:
        key, _, value = token.partition("=")
        dims[key] = value
    if kind == "model":
        d, h, c = (int(dims[key]) for key in ("d", "h", "c"))
        shapes = [(h, d), (1, h), (c, h), (1, c)]
    elif kind == "dataset":
        shapes = [(int(dims["n"]), int(dims["d"]))]
    else:
        shapes = [(int(dims["n"]), int(dims["c"]))]
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    total = sum(rows for rows, _ in shapes)
    if len(body) != total:
        raise FormatError(f"{path}: row count mismatch (header says {total}, found {len(body)})")
    out, start = [], 0
    for rows, width in shapes:
        matrix = np.empty((rows, width), dtype=np.float64)
        if kind == "dataset":
            labels = np.empty(rows, dtype=np.int64)
        for i, (lineno, line) in enumerate(body[start : start + rows]):
            if kind == "dataset":
                matrix[i], labels[i] = _reference_dataset_row(line, width, int(dims["c"]), path, lineno)
            else:
                matrix[i] = _reference_float_row(line, width, path, lineno)
        out.append(matrix)
        start += rows
    if kind == "dataset":
        out.append(labels)
    return out
