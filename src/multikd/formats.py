"""Text file formats: logit dumps, datasets, models, targets, configs.

Every format is line-oriented text with a magic first line of the form
`#<kind> v1 key=value ...`. Floats are printed with Python's shortest
round-trip repr, so dump-then-load reproduces every value bit-exactly
and files stay diffable. Loaders reject, with a named diagnostic, each
of: bad magic line, dimension mismatches, and non-finite values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import STRATEGIES
from .datagen import MODALITIES, SPLITS, Dataset
from .errors import FormatError
from .trainer import StudentModel


@dataclass
class LogitDump:
    teacher_id: str
    n: int
    c: int
    rows: np.ndarray


def fmt_float(x: float) -> str:
    return repr(float(x))


def _check_teacher_id(teacher_id: str) -> str:
    if not teacher_id or any(ch.isspace() for ch in teacher_id):
        raise FormatError(f"teacher id must be non-empty without whitespace, got {teacher_id!r}")
    return teacher_id


def _float_row(line: str, width: int, path: str, lineno: int) -> np.ndarray:
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


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _parse_magic(line: str, kind: str, keys: list[str], path: str) -> dict[str, str]:
    tokens = line.split()
    if len(tokens) != 2 + len(keys) or tokens[0] != f"#{kind}" or tokens[1] != "v1":
        raise FormatError(f"{path}:1: bad magic line (expected '#{kind} v1 ...')")
    parsed = {}
    for token, key in zip(tokens[2:], keys):
        if not token.startswith(key + "="):
            raise FormatError(f"{path}:1: bad magic line (expected {key}=..., got {token!r})")
        parsed[key] = token[len(key) + 1 :]
    return parsed


def _parse_int(raw: str, key: str, path: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"{path}:1: {key} must be an integer, got {raw!r}") from None
    if value < 0:
        raise FormatError(f"{path}:1: {key} must be nonnegative")
    return value


def _parse_float(raw: str, key: str, path: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise FormatError(f"{path}:1: {key} must be a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{path}:1: {key} must be finite, got {raw!r}")
    return value


def _body(lines: list[str], n: int, path: str) -> list[str]:
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != n:
        raise FormatError(f"{path}: row count mismatch (header says {n}, found {len(body)})")
    return body


# ---------------------------------------------------------------------------
# logit dumps


def write_logit_dump(path: str, teacher_id: str, rows) -> None:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise FormatError("logit dump needs a non-empty N x C matrix")
    if not np.isfinite(rows).all():
        raise FormatError("logit dump rejects non-finite values")
    _check_teacher_id(teacher_id)
    n, c = rows.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#logits v1 n={n} c={c} teacher={teacher_id}\n")
        for row in rows:
            fh.write(" ".join(fmt_float(x) for x in row) + "\n")


def load_logits(path: str) -> LogitDump:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file (bad magic line)")
    header = _parse_magic(lines[0], "logits", ["n", "c", "teacher"], path)
    n = _parse_int(header["n"], "n", path)
    c = _parse_int(header["c"], "c", path)
    if n == 0 or c == 0:
        raise FormatError(f"{path}: empty dump rejected (n and c must be positive)")
    body = _body(lines, n, path)
    rows = np.empty((n, c), dtype=np.float64)
    for i, line in enumerate(body):
        rows[i] = _float_row(line, c, path, i + 2)
    return LogitDump(teacher_id=_check_teacher_id(header["teacher"]), n=n, c=c, rows=rows)


# ---------------------------------------------------------------------------
# datasets


def write_dataset(path: str, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"#dataset v1 n={dataset.n} d={dataset.dim} c={dataset.n_classes} "
            f"modality={dataset.modality} split={dataset.split}\n"
        )
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(" ".join(fmt_float(x) for x in row) + f" {int(label)}\n")


def load_dataset(path: str) -> Dataset:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file (bad magic line)")
    header = _parse_magic(lines[0], "dataset", ["n", "d", "c", "modality", "split"], path)
    n = _parse_int(header["n"], "n", path)
    d = _parse_int(header["d"], "d", path)
    c = _parse_int(header["c"], "c", path)
    if n == 0 or d == 0 or c == 0:
        raise FormatError(f"{path}: empty dataset rejected")
    if header["modality"] not in MODALITIES:
        raise FormatError(f"{path}:1: unknown modality {header['modality']!r}")
    if header["split"] not in SPLITS:
        raise FormatError(f"{path}:1: unknown split {header['split']!r}")
    body = _body(lines, n, path)
    features = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != d + 1:
            raise FormatError(
                f"{path}:{i + 2}: column count mismatch (expected {d} floats + label)"
            )
        features[i] = _float_row(" ".join(tokens[:d]), d, path, i + 2)
        try:
            label = int(tokens[d])
        except ValueError:
            raise FormatError(f"{path}:{i + 2}: malformed label {tokens[d]!r}") from None
        if not 0 <= label < c:
            raise FormatError(f"{path}:{i + 2}: label {label} out of range [0, {c})")
        labels[i] = label
    return Dataset(features, labels, c, header["modality"], header["split"])


# ---------------------------------------------------------------------------
# student/teacher models


def write_model(path: str, model: StudentModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#model v1 d={model.d_in} h={model.hidden_dim} c={model.n_classes}\n")
        for row in model.w1:
            fh.write(" ".join(fmt_float(x) for x in row) + "\n")
        fh.write(" ".join(fmt_float(x) for x in model.b1) + "\n")
        for row in model.w2:
            fh.write(" ".join(fmt_float(x) for x in row) + "\n")
        fh.write(" ".join(fmt_float(x) for x in model.b2) + "\n")


def load_model(path: str) -> StudentModel:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file (bad magic line)")
    header = _parse_magic(lines[0], "model", ["d", "h", "c"], path)
    d = _parse_int(header["d"], "d", path)
    h = _parse_int(header["h"], "h", path)
    c = _parse_int(header["c"], "c", path)
    if min(d, h, c) == 0:
        raise FormatError(f"{path}: degenerate model dimensions")
    body = _body(lines, h + 1 + c + 1, path)
    w1 = np.empty((h, d))
    for i in range(h):
        w1[i] = _float_row(body[i], d, path, i + 2)
    b1 = _float_row(body[h], h, path, h + 2)
    w2 = np.empty((c, h))
    for i in range(c):
        w2[i] = _float_row(body[h + 1 + i], h, path, h + 3 + i)
    b2 = _float_row(body[h + 1 + c], c, path, h + c + 3)
    return StudentModel(w1, b1, w2, b2)


# ---------------------------------------------------------------------------
# assembled targets and weights (inspection outputs)


def write_targets(path: str, strategy: str, tau: float, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    n, c = matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#targets v1 n={n} c={c} strategy={strategy} tau={fmt_float(tau)}\n")
        for row in matrix:
            fh.write(" ".join(fmt_float(x) for x in row) + "\n")


def load_targets(path: str) -> tuple[str, float, np.ndarray]:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file (bad magic line)")
    header = _parse_magic(lines[0], "targets", ["n", "c", "strategy", "tau"], path)
    n = _parse_int(header["n"], "n", path)
    c = _parse_int(header["c"], "c", path)
    if header["strategy"] not in STRATEGIES:
        raise FormatError(f"{path}:1: unknown strategy {header['strategy']!r}")
    tau = _parse_float(header["tau"], "tau", path)
    body = _body(lines, n, path)
    rows = np.empty((n, c))
    for i, line in enumerate(body):
        rows[i] = _float_row(line, c, path, i + 2)
    return header["strategy"], tau, rows


def write_weights(path: str, mode: str, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    n, k = matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#weights v1 n={n} k={k} mode={mode}\n")
        for row in matrix:
            fh.write(" ".join(fmt_float(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# run configuration files


CONFIG_SCALAR_KEYS = {
    "seed",
    "strategy",
    "tau",
    "alpha",
    "h",
    "weight_tau",
    "gamma",
    "lr",
    "epochs",
    "batch_size",
    "hidden_dim",
    "n_train",
    "n_test",
    "classes",
    "dim",
    "noise",
    "dark_factor",
    "quant_levels",
    "data_dir",
    "out",
    "seeds",
    "strategies",
}
CONFIG_REPEAT_KEYS = {"teacher"}


def parse_config_file(path: str) -> dict:
    """`key = value` pairs, one per line; `#` lines are comments.

    The `teacher` key may repeat; its values accumulate in order.
    """
    values: dict = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise FormatError(f"{path}:{lineno}: empty value for {key!r}")
        if key in CONFIG_REPEAT_KEYS:
            values.setdefault(key, []).append(value)
        elif key in CONFIG_SCALAR_KEYS:
            if key in values:
                raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
        else:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def dataset_filename(split: str, modality: str) -> str:
    return f"{split}_{modality}.txt"


def write_all_views(directory: str, data) -> list[str]:
    """Write the six canonical dataset files into a directory."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for split in SPLITS:
        for modality in MODALITIES:
            ds = data.view(split, modality)
            path = os.path.join(directory, dataset_filename(split, modality))
            write_dataset(path, ds)
            written.append(path)
    return written


def load_all_views(directory: str):
    from .datagen import SyntheticData

    def grab(split, modality):
        return load_dataset(os.path.join(directory, dataset_filename(split, modality)))

    return SyntheticData(
        train_a=grab("train", "A"),
        train_b=grab("train", "B"),
        train_dark=grab("train", "A_dark"),
        test_a=grab("test", "A"),
        test_b=grab("test", "B"),
        test_dark=grab("test", "A_dark"),
    )
