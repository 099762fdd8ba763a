"""Text file formats: logit dumps, datasets, models, targets, configs.

Every format is line-oriented text with a magic first line of the form
`#<kind> v1 key=value ...`. Floats are printed with Python's shortest
round-trip repr, so dump-then-load reproduces every value bit-exactly
and files stay diffable. Loaders reject, with a named diagnostic, each
of: bad magic line, dimension mismatches, and non-finite values.
Matrix bodies are converted a chunk of rows at a time; a faulty chunk
is parsed again line by line, so each diagnostic names the first faulty
line. Writers write a temporary file beside the target and move it into
place only once it is complete.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .config import RUN_KEYS, STRATEGIES
from .datagen import (
    MODALITIES,
    MODALITY_A,
    MODALITY_A_DARK,
    MODALITY_B,
    SPLITS,
    Dataset,
    SyntheticData,
)
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


def _dataset_row(line: str, d: int, c: int, path: str, lineno: int) -> tuple[np.ndarray, int]:
    tokens = line.split()
    if len(tokens) != d + 1:
        raise FormatError(f"{path}:{lineno}: column count mismatch (expected {d} floats + label)")
    features = _float_row(" ".join(tokens[:d]), d, path, lineno)
    try:
        label = int(tokens[d])
    except ValueError:
        raise FormatError(f"{path}:{lineno}: malformed label {tokens[d]!r}") from None
    if not 0 <= label < c:
        raise FormatError(f"{path}:{lineno}: label {label} out of range [0, {c})")
    return features, label


# Rows converted per numpy call. A chunk bounds the list of token strings
# held at once, so a large file costs little more memory than its matrix.
_CHUNK_ROWS = 256


def _convert_chunk(rows: list[list[str]], width: int, n_classes: int | None):
    """(values, labels) of a chunk of split rows, or None if any row is faulty.

    One `np.array` call converts every float token; it accepts the
    syntax `float` accepts and gives the same bits.
    """
    columns = width if n_classes is None else width + 1
    if any(len(row) != columns for row in rows):
        return None
    try:
        block = np.array(list(itertools.chain.from_iterable(rows)), dtype=np.float64)
        labels = None
        if n_classes is not None:
            labels = np.array([int(row[width]) for row in rows], dtype=np.int64)
    except (ValueError, OverflowError):  # a malformed number, or a label past int64
        return None
    values = block.reshape(len(rows), columns)[:, :width]
    if not np.isfinite(values).all():
        return None
    if labels is not None and not (0 <= labels.min() and labels.max() < n_classes):
        return None
    return values, labels


def _parse_rows(
    lines: list[str], width: int, path: str, lineno: int, n_classes: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """`lines` as an (n, width) float matrix, checked as `_float_row` checks a row.

    `lineno` is the file line number of lines[0]. With `n_classes`, each
    line ends in one more column, an integer label in [0, n_classes)
    checked as `_dataset_row` checks it, and the labels are returned
    too; otherwise the second value is None.

    Rows are converted a chunk at a time. A chunk with any fault is
    parsed again line by line, which raises the diagnostic naming its
    first faulty line, exactly as a line-by-line parse of the file would.
    """
    matrix = np.empty((len(lines), width))
    labels = None if n_classes is None else np.empty(len(lines), dtype=np.int64)
    for start in range(0, len(lines), _CHUNK_ROWS):
        chunk = lines[start : start + _CHUNK_ROWS]
        converted = _convert_chunk([line.split() for line in chunk], width, n_classes)
        if converted is not None:
            matrix[start : start + len(chunk)] = converted[0]
            if labels is not None:
                labels[start : start + len(chunk)] = converted[1]
            continue
        for i, line in enumerate(chunk, start):
            if labels is None:
                matrix[i] = _float_row(line, width, path, lineno + i)
            else:
                matrix[i], labels[i] = _dataset_row(line, width, n_classes, path, lineno + i)
    return matrix, labels


@contextlib.contextmanager
def write_atomically(path):
    """A text file to write in place of `path`, moved there once complete.

    The content goes to a temporary file in the same directory, and
    `os.replace` moves it over `path` when the block exits cleanly. A
    reader never sees a half-written file, and a write that fails leaves
    any earlier file at `path` as it was and no temporary file behind.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        exc.filename = path  # name the file the caller asked for, as a plain open would
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _parse_number(raw: str, key: str, read: type, path: str):
    """A header value as an int (a dimension, nonnegative) or a finite float."""
    try:
        value = read(raw)
    except ValueError:
        what = "an integer" if read is int else "a number"
        raise FormatError(f"{path}:1: {key} must be {what}, got {raw!r}") from None
    if read is int and value < 0:
        raise FormatError(f"{path}:1: {key} must be nonnegative")
    if read is float and not np.isfinite(value):
        raise FormatError(f"{path}:1: {key} must be finite, got {raw!r}")
    return value


def _body(lines: list[str], n: int, path: str) -> list[str]:
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != n:
        raise FormatError(f"{path}: row count mismatch (header says {n}, found {len(body)})")
    return body


def _read_matrix(path: str, kind: str, schema: dict, empty: str) -> tuple[dict, list[str]]:
    """The header values and the lines of a `#<kind> v1 key=value ...` file.

    `schema` maps each header key, in file order, to how its value is
    read: `int` for a dimension, `float`, a tuple of the allowed words,
    or `str` for any word. The dimensions are parsed first, and a file
    with a zero dimension is rejected with the message `empty`; then the
    other values are parsed in order.
    """
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file (bad magic line)")
    tokens = lines[0].split()
    if len(tokens) != 2 + len(schema) or tokens[0] != f"#{kind}" or tokens[1] != "v1":
        raise FormatError(f"{path}:1: bad magic line (expected '#{kind} v1 ...')")
    raw = {}
    for token, key in zip(tokens[2:], schema):
        if not token.startswith(key + "="):
            raise FormatError(f"{path}:1: bad magic line (expected {key}=..., got {token!r})")
        raw[key] = token[len(key) + 1 :]
    dims = [key for key, read in schema.items() if read is int]
    header = {key: _parse_number(raw[key], key, int, path) for key in dims}
    if 0 in header.values():
        raise FormatError(f"{path}: {empty}")
    for key, read in schema.items():
        if read is float:
            header[key] = _parse_number(raw[key], key, float, path)
        elif isinstance(read, tuple) and raw[key] not in read:
            raise FormatError(f"{path}:1: unknown {key} {raw[key]!r}")
        elif read is not int:
            header[key] = raw[key]
    return header, lines


def _write_matrix(path: str, kind: str, header: dict, *blocks, labels=None) -> None:
    """Write the magic line `#<kind> v1 key=value ...`, then one line per
    row of each block in turn; with `labels`, line i ends in labels[i]."""
    ends = itertools.repeat("") if labels is None else (f" {int(label)}" for label in labels)
    magic = " ".join([f"#{kind} v1", *(f"{key}={value}" for key, value in header.items())])
    with write_atomically(path) as fh:
        fh.write(magic + "\n")
        for row, end in zip(itertools.chain(*blocks), ends):
            fh.write(" ".join(fmt_float(x) for x in row) + end + "\n")


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
    _write_matrix(path, "logits", {"n": n, "c": c, "teacher": teacher_id}, rows)


def load_logits(path: str) -> LogitDump:
    header, lines = _read_matrix(
        path, "logits", {"n": int, "c": int, "teacher": str},
        "empty dump rejected (n and c must be positive)",
    )
    n, c = header["n"], header["c"]
    rows, _ = _parse_rows(_body(lines, n, path), c, path, 2)
    return LogitDump(teacher_id=_check_teacher_id(header["teacher"]), n=n, c=c, rows=rows)


# ---------------------------------------------------------------------------
# datasets


def write_dataset(path: str, dataset: Dataset) -> None:
    header = {
        "n": dataset.n, "d": dataset.dim, "c": dataset.n_classes,
        "modality": dataset.modality, "split": dataset.split,
    }
    _write_matrix(path, "dataset", header, dataset.features, labels=dataset.labels)


def load_dataset(path: str) -> Dataset:
    header, lines = _read_matrix(
        path, "dataset", {"n": int, "d": int, "c": int, "modality": MODALITIES, "split": SPLITS},
        "empty dataset rejected",
    )
    c = header["c"]
    features, labels = _parse_rows(_body(lines, header["n"], path), header["d"], path, 2, n_classes=c)
    return Dataset(features, labels, c, header["modality"], header["split"])


# ---------------------------------------------------------------------------
# student/teacher models


def write_model(path: str, model: StudentModel) -> None:
    header = {"d": model.d_in, "h": model.hidden_dim, "c": model.n_classes}
    _write_matrix(path, "model", header, model.w1, [model.b1], model.w2, [model.b2])


def load_model(path: str) -> StudentModel:
    header, lines = _read_matrix(
        path, "model", {"d": int, "h": int, "c": int}, "degenerate model dimensions"
    )
    d, h, c = header["d"], header["h"], header["c"]
    body = _body(lines, h + 1 + c + 1, path)
    w1, _ = _parse_rows(body[:h], d, path, 2)
    b1, _ = _parse_rows(body[h : h + 1], h, path, h + 2)
    w2, _ = _parse_rows(body[h + 1 : h + 1 + c], h, path, h + 3)
    b2, _ = _parse_rows(body[h + 1 + c :], c, path, h + c + 3)
    return StudentModel(w1, b1[0], w2, b2[0])


# ---------------------------------------------------------------------------
# assembled targets and weights (inspection outputs)


def write_targets(path: str, strategy: str, tau: float, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    n, c = matrix.shape
    header = {"n": n, "c": c, "strategy": strategy, "tau": fmt_float(tau)}
    _write_matrix(path, "targets", header, matrix)


def load_targets(path: str) -> tuple[str, float, np.ndarray]:
    header, lines = _read_matrix(
        path, "targets", {"n": int, "c": int, "strategy": STRATEGIES, "tau": float},
        "empty targets rejected (n and c must be positive)",
    )
    rows, _ = _parse_rows(_body(lines, header["n"], path), header["c"], path, 2)
    return header["strategy"], header["tau"], rows


def write_weights(path: str, mode: str, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    n, k = matrix.shape
    _write_matrix(path, "weights", {"n": n, "k": k, "mode": mode}, matrix)


# ---------------------------------------------------------------------------
# run configuration files


def parse_config_file(path: str) -> dict:
    """`key = value` pairs, one per line; `#` lines are comments.

    The keys are those of `config.RUN_KEYS`. A repeatable key (`teacher`)
    accumulates its values in order; any other key may appear once.
    """
    keys = {row.key: row for row in RUN_KEYS}
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
        if key not in keys:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if keys[key].repeat:
            values.setdefault(key, []).append(value)
        elif key in values:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value
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


def load_all_views(directory: str) -> SyntheticData:
    """The six views written by `write_all_views`, checked to agree.

    Each file's header names the split and modality its file name does.
    Within a split, the three views describe the same samples: equal
    sample and class counts, identical labels, and A_dark as wide as A.
    Across splits, each modality keeps its feature width and class
    count. A disagreement raises FormatError naming the file.
    """
    paths = {
        (split, modality): os.path.join(directory, dataset_filename(split, modality))
        for split in SPLITS
        for modality in MODALITIES
    }
    views = {key: load_dataset(path) for key, path in paths.items()}
    for (split, modality), view in views.items():
        if (view.split, view.modality) != (split, modality):
            raise FormatError(
                f"{paths[split, modality]}:1: header says split={view.split} "
                f"modality={view.modality}, file name says split={split} modality={modality}"
            )

    def agree(key, ref, what: str, got, want) -> None:
        if got != want:
            raise FormatError(f"{paths[key]}: {what} disagree with {paths[ref]} ({got} vs {want})")

    for split in SPLITS:
        ref = (split, MODALITY_A)
        for key in ((split, MODALITY_B), (split, MODALITY_A_DARK)):
            view, base = views[key], views[ref]
            agree(key, ref, "sample counts", view.n, base.n)
            if not np.array_equal(view.labels, base.labels):
                raise FormatError(f"{paths[key]}: labels disagree with {paths[ref]}")
            agree(key, ref, "class counts", view.n_classes, base.n_classes)
        key = (split, MODALITY_A_DARK)
        agree(key, ref, "feature widths", views[key].dim, views[ref].dim)
    for modality in MODALITIES:
        key, ref = ("test", modality), ("train", modality)
        agree(key, ref, "feature widths", views[key].dim, views[ref].dim)
        agree(key, ref, "class counts", views[key].n_classes, views[ref].n_classes)
    return SyntheticData.from_views(views)
