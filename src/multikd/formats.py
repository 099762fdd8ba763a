"""Text file formats: logit dumps, datasets, models, targets, configs.

Every format is line-oriented text with a magic first line of the form
`#<kind> v1 key=value ...`. Floats are printed with Python's shortest
round-trip repr, so dump-then-load reproduces every value bit-exactly
and files stay diffable. Loaders reject, with a named diagnostic, each
of: bad magic line, dimension mismatches, and non-finite values.
Lines are counted at "\n", as iterating over the file counts them, so
each diagnostic names the file's own line. A matrix body is converted
by one C parse (`np.loadtxt`); a body it rejects is parsed again line by
line, which accepts what `float` accepts and names the first faulty
line. Writers refuse a block the loaders would reject, format each row
in one pass over its values, and write a temporary file beside the
target that they move into place only once it is complete.
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
    rows: np.ndarray  # n x c


def fmt_float(x: float) -> str:
    return repr(float(x))


def _check_teacher_id(teacher_id: str, where: str = "") -> str:
    """`teacher_id`, checked; `where` ("path:1: ") prefixes the diagnostic of a file's id."""
    if not teacher_id or any(ch.isspace() for ch in teacher_id):
        raise FormatError(f"{where}teacher id must be non-empty without whitespace, got {teacher_id!r}")
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


def _parse_rows(
    lines: list[str], linenos: range | list[int], width: int, path: str,
    n_classes: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """`lines`, at file line numbers `linenos`, as an (n, width) float matrix.

    With `n_classes`, each line ends in one more column, an integer label
    in [0, n_classes) checked as `_dataset_row` checks it, and the labels
    are returned too; otherwise the second value is None.

    One `np.loadtxt` call converts the body. Its C parser splits at the
    whitespace `str.split` splits at and accepts a subset of what `float`
    accepts (no `_`, no non-ASCII digits), with the same bits. It holds
    no token strings, so a large body costs little more memory than its
    lines and its matrix. A body it rejects, or whose shape, values or
    labels are faulty, is parsed again line by line, which raises the
    diagnostic naming its first faulty line, exactly as a line-by-line
    parse of the file would.
    """
    try:
        block = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        labels = None
        if n_classes is not None:
            labels = np.array([int(line.rsplit(None, 1)[-1]) for line in lines], dtype=np.int64)
    except (ValueError, OverflowError):  # a malformed row, or a label past int64
        block = None
    columns = width if n_classes is None else width + 1
    if (
        block is not None
        and block.shape == (len(lines), columns)
        and np.isfinite(block).all()
        and (labels is None or (0 <= labels.min() and labels.max() < n_classes))
    ):
        return (block, None) if labels is None else (np.ascontiguousarray(block[:, :width]), labels)
    matrix = np.empty((len(lines), width))
    labels = None if n_classes is None else np.empty(len(lines), dtype=np.int64)
    for i, (lineno, line) in enumerate(zip(linenos, lines)):
        if labels is None:
            matrix[i] = _float_row(line, width, path, lineno)
        else:
            matrix[i], labels[i] = _dataset_row(line, width, n_classes, path, lineno)
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
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the caller's file, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_lines(path: str) -> list[str]:
    """The file's lines as iterating over it yields them: split at "\n" only."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes not UTF-8
        raise FormatError(f"cannot read {str(path)!r}: {exc}") from None


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


def _body(lines: list[str], n: int, path: str) -> tuple[list[str], range | list[int]]:
    """The n non-blank lines after the magic line, and their file line numbers."""
    body = list(filter(str.strip, lines[1:]))
    if len(body) != n:
        raise FormatError(f"{path}: row count mismatch (header says {n}, found {len(body)})")
    if len(body) == len(lines) - 1:  # no blank line: the numbers need no list
        return body, range(2, n + 2)
    return body, [lineno for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


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


def _write_matrix(path: str, kind: str, header: dict, *blocks, dims=(), labels=None) -> None:
    """Write the magic line `#<kind> v1 key=value ...`, then one line per
    row of each block in turn; with `labels`, line i ends in labels[i].

    The magic line starts with the first block's shape under the names
    `dims`, then lists `header`. Each block must be a non-empty, finite
    2-D matrix, as the loaders require; FormatError is raised before any
    file is opened otherwise.
    """
    blocks = [np.asarray(block, dtype=np.float64) for block in blocks]
    for block in blocks:
        if block.ndim != 2 or block.size == 0:
            raise FormatError(f"{kind} file needs non-empty 2-D matrices, got shape {block.shape}")
        if not np.isfinite(block).all():
            raise FormatError(f"{kind} file rejects non-finite values")
    header = {**dict(zip(dims, blocks[0].shape)), **header}
    magic = " ".join([f"#{kind} v1", *(f"{key}={value}" for key, value in header.items())])
    # One row at a time, so the text is never held whole: a file costs
    # little more memory than its matrix.
    rows = (row.tolist() for block in blocks for row in block)
    ends = itertools.repeat("\n") if labels is None else (f" {label}\n" for label in labels.tolist())
    with write_atomically(path) as fh:
        fh.write(magic + "\n")
        fh.writelines(" ".join(map(repr, row)) + end for row, end in zip(rows, ends))


# ---------------------------------------------------------------------------
# logit dumps


def write_logit_dump(path: str, teacher_id: str, rows) -> None:
    _write_matrix(path, "logits", {"teacher": _check_teacher_id(teacher_id)}, rows, dims=("n", "c"))


def load_logits(path: str) -> LogitDump:
    header, lines = _read_matrix(
        path, "logits", {"n": int, "c": int, "teacher": str},
        "empty dump rejected (n and c must be positive)",
    )
    rows, _ = _parse_rows(*_body(lines, header["n"], path), header["c"], path)
    return LogitDump(teacher_id=_check_teacher_id(header["teacher"], f"{path}:1: "), rows=rows)


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
    features, labels = _parse_rows(*_body(lines, header["n"], path), header["d"], path, n_classes=c)
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
    body, linenos = _body(lines, h + 1 + c + 1, path)

    def block(start: int, stop: int, width: int) -> np.ndarray:
        return _parse_rows(body[start:stop], linenos[start:stop], width, path)[0]

    w1, b1 = block(0, h, d), block(h, h + 1, h)
    w2, b2 = block(h + 1, h + 1 + c, h), block(h + 1 + c, h + c + 2, c)
    return StudentModel(w1, b1[0], w2, b2[0])


# ---------------------------------------------------------------------------
# assembled targets and weights (inspection outputs)


def write_targets(path: str, strategy: str, tau: float, matrix) -> None:
    if strategy not in STRATEGIES:
        raise FormatError(f"targets file rejects unknown strategy {strategy!r}")
    if not np.isfinite(tau):
        raise FormatError(f"targets file rejects non-finite tau {tau!r}")
    header = {"strategy": strategy, "tau": fmt_float(tau)}
    _write_matrix(path, "targets", header, matrix, dims=("n", "c"))


def load_targets(path: str) -> tuple[str, float, np.ndarray]:
    header, lines = _read_matrix(
        path, "targets", {"n": int, "c": int, "strategy": STRATEGIES, "tau": float},
        "empty targets rejected (n and c must be positive)",
    )
    rows, _ = _parse_rows(*_body(lines, header["n"], path), header["c"], path)
    return header["strategy"], header["tau"], rows


def write_weights(path: str, mode: str, matrix) -> None:
    _write_matrix(path, "weights", {"mode": mode}, matrix, dims=("n", "k"))


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
