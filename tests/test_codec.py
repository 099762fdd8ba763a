"""The matrix codec against the line-by-line parse of tests/_oracles.py.

Loaders convert a body in one C parse and parse it again line by line
only when that parse rejects it. These tests pin what the C parse must
not change: it accepts no file the line-by-line parse rejects, gives
the same bits for what both accept, and every diagnostic names the
line of the file that is at fault, counted as iterating over the file
counts lines. A hypothesis fuzz mutates valid files of each kind.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multikd.formats as formats
from multikd.datagen import Dataset
from multikd.errors import FormatError
from multikd.formats import (
    load_dataset,
    load_logits,
    load_model,
    load_targets,
    write_dataset,
    write_logit_dump,
    write_model,
    write_targets,
)
from multikd.rng import SplitMix64
from multikd.trainer import init_student

from _oracles import reference_load

LOGITS_HEADER = "#logits v1 n=3 c=2 teacher=t\n"
DATASET_HEADER = "#dataset v1 n=3 d=2 c=4 modality=A split=train\n"


def _message(fn, path):
    with pytest.raises(FormatError) as info:
        fn(path)
    return str(info.value)


# ---------------------------------------------------------------------------
# diagnostics name the file's own line


@pytest.mark.parametrize("loader, header, bad", [
    (load_logits, LOGITS_HEADER, "0.5 x"),
    (load_dataset, DATASET_HEADER, "0.5 x 1"),
    (load_dataset, DATASET_HEADER, "0.5 0.5 9"),
])
def test_fault_after_blank_lines_and_separators_names_its_file_line(tmp_path, loader, header, bad):
    good = "0.5\x0c0.5" if loader is load_logits else "0.5 0.5\x851"
    path = tmp_path / "f.txt"
    path.write_text(header + good + "\n\n  \n" + good + "\n" + bad + "\n", encoding="utf-8")
    assert _message(loader, path).startswith(f"{path}:6: ")
    assert _message(loader, path) == _message(lambda p: reference_load(
        "logits" if loader is load_logits else "dataset", p), path)


@pytest.mark.parametrize("block", range(4))
def test_model_fault_in_each_block_names_its_file_line(tmp_path, block):
    path = tmp_path / "model.txt"
    write_model(path, init_student(3, 2, 2, SplitMix64(1)))
    lines = path.read_text(encoding="utf-8").split("\n")
    first = [1, 3, 4, 6][block]  # index of the block's first row: w1, b1, w2, b2
    lines[first] = "\x1c" + lines[first].replace(" ", "\x1d", 1) + " oops"
    lines.insert(first, "\t")
    path.write_text("\n".join(lines), encoding="utf-8")
    message = _message(load_model, path)
    assert message.startswith(f"{path}:{first + 2}: column count mismatch")
    assert message == _message(lambda p: reference_load("model", p), path)


@pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", " ", " "])
def test_line_break_other_than_newline_separates_columns(tmp_path, sep):
    path = tmp_path / "t.logits"
    path.write_text(f"#logits v1 n=2 c=2 teacher=t\n1.0{sep}2.0\n3.0 4.0\n", encoding="utf-8")
    assert load_logits(path).rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# ---------------------------------------------------------------------------
# the C parse accepts no more than the line-by-line parse


def test_numbers_only_float_accepts_load_through_the_fallback(tmp_path, monkeypatch):
    path = tmp_path / "t.logits"
    path.write_text(LOGITS_HEADER + "0.5 0.25\n1_0 ١\n1_000.5 ٣.٥\n", encoding="utf-8")
    calls = []
    real_float_row = formats._float_row

    def spy(line, *args):
        calls.append(line)
        return real_float_row(line, *args)

    monkeypatch.setattr(formats, "_float_row", spy)
    rows = load_logits(path).rows
    assert len(calls) == 3  # the C parse rejected the body
    assert rows.tolist() == [[0.5, 0.25], [10.0, 1.0], [1000.5, 3.5]]
    assert rows.tobytes() == reference_load("logits", path)[0].tobytes()


@pytest.mark.parametrize("loader, header, rows, want", [
    (load_logits, LOGITS_HEADER, ["0.5 0.5", "1.0 #2", "0.5 0.5"],
     ":3: malformed number: could not convert string to float: '#2'"),
    (load_logits, LOGITS_HEADER, ["0.5 0.5", "1.0 2#", "0.5 0.5"],
     ":3: malformed number: could not convert string to float: '2#'"),
    (load_logits, LOGITS_HEADER.replace("c=2", "c=1"), ["0.5", "1.0 #2", "0.5"],
     ":3: column count mismatch (expected 1, got 2)"),
    (load_dataset, DATASET_HEADER, ["0.5 0.5 1", "0.5 0.5 2", "0.5 0.5 3.0"],
     ":4: malformed label '3.0'"),
    (load_logits, LOGITS_HEADER, ["0.5 0.5", "0.5 0.5 0.5", "0.5 0.5"],
     ":3: column count mismatch (expected 2, got 3)"),
    (load_dataset, DATASET_HEADER, ["0.5 0.5 1", "0.5 0.5 2", "0.5 0.5 0.5 3"],
     ":4: column count mismatch (expected 2 floats + label)"),
])
def test_c_parse_rejects_what_the_line_parse_rejects(tmp_path, loader, header, rows, want):
    path = tmp_path / "f.txt"
    path.write_text(header + "\n".join(rows) + "\n")
    assert _message(loader, path) == f"{path}{want}"


@pytest.mark.parametrize("loader", [load_logits, load_dataset, load_model, load_targets])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, loader):
    path = tmp_path / "f.txt"
    path.write_bytes(LOGITS_HEADER.encode() + b"0.5 \xff\n")
    assert _message(loader, path).startswith(f"cannot read {str(path)!r}: 'utf-8' codec can't decode")


def test_dataset_features_are_their_own_contiguous_matrix(tmp_path):
    path = tmp_path / "train_A.txt"
    path.write_text(DATASET_HEADER + "0.5 0.25 1\n0.125 1.5 2\n2.5 3.5 3\n")
    ds = load_dataset(path)
    assert ds.features.flags.c_contiguous and ds.features.base is None
    assert ds.features.tolist() == [[0.5, 0.25], [0.125, 1.5], [2.5, 3.5]]
    assert ds.labels.tolist() == [1, 2, 3]


# ---------------------------------------------------------------------------
# fuzz: mutated valid files load as the oracle does, or fail naming the file


def _write_valid(kind, path, n, width, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-5, 5, size=(n, width))
    if kind == "logits":
        write_logit_dump(path, "t", values)
    elif kind == "targets":
        write_targets(path, "PKD", 2.5, values)
    elif kind == "dataset":
        write_dataset(path, Dataset(values, rng.integers(0, 3, size=n), 3, "A", "train"))
    else:
        write_model(path, init_student(width, n, 3, SplitMix64(seed)))


def _loaded(kind, path):
    """The loader's matrices in reference_load's order."""
    if kind == "logits":
        return [load_logits(path).rows]
    if kind == "targets":
        return [load_targets(path)[2]]
    if kind == "dataset":
        ds = load_dataset(path)
        return [ds.features, ds.labels]
    model = load_model(path)
    return [model.w1, model.b1, model.w2, model.b2]


HEADER_TOKENS = ["n=0", "n=-1", "c=x", "n=1e3", "d=1.5", "c=٢", "h=0", "teacher=", "v2",
                 "#logits", "#model", "tau=nan", "split=dev", "n=99999999999999999999", ""]
SEPARATORS = ["\n", "\n\n", " ", "\t", "\r", "\r\n", "\x0c", "\x0b", "\x1c", "\x1f", "\x85",
              " ", "#", "_", "٣", "\x00", "e", ".", "-", "nan", " 1.5", "1e999"]


@st.composite
def mutations(draw):
    """A list of (operation, arguments) edits of a file's text."""
    position = st.integers(0, 10**6)
    op = st.one_of(
        st.tuples(st.just("insert"), position, st.sampled_from(SEPARATORS)),
        st.tuples(st.just("row length"), position, st.booleans()),
        st.tuples(st.just("truncate"), position, st.none()),
        st.tuples(st.just("dimension"), position, st.integers(-2, 2)),
        st.tuples(st.just("header"), position, st.sampled_from(HEADER_TOKENS)),
    )
    return draw(st.lists(op, min_size=1, max_size=3))


def _mutate(text, op, at, arg):
    lines = text.split("\n")
    if op == "header":
        tokens = lines[0].split(" ")
        tokens[at % len(tokens)] = arg
        lines[0] = " ".join(tokens)
    elif op == "dimension":
        tokens = lines[0].split(" ")
        dims = [i for i, t in enumerate(tokens) if re.fullmatch(r"[ndhck]=\d+", t)]
        if dims:
            i = dims[at % len(dims)]
            key, value = tokens[i].split("=")
            tokens[i] = f"{key}={int(value) + arg}"
            lines[0] = " ".join(tokens)
    elif op == "row length":
        i = 1 + at % max(1, len(lines) - 1)
        if i < len(lines):
            row = lines[i].split(" ")
            lines[i] = " ".join(row + row[:1] if arg else row[:-1])
    else:  # truncate or insert, within the body
        start = len(lines[0]) + 1
        at = start + at % (len(text) - start + 1)
        return text[:at] if op == "truncate" else text[:at] + arg + text[at:]
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ["logits", "targets", "dataset", "model"])
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 5), width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       edits=mutations())
def test_mutated_file_loads_as_the_oracle_or_names_the_file(tmp_path, kind, n, width, seed, edits):
    path = tmp_path / f"{kind}.txt"
    _write_valid(kind, path, n, width, seed)
    text = path.read_text(encoding="utf-8")
    for op, at, arg in edits:
        text = _mutate(text, op, at, arg)
    path.write_text(text, encoding="utf-8")
    try:
        got = _loaded(kind, path)
    except FormatError as exc:
        message = str(exc)
        assert message.startswith(f"{path}:")
        line = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
        if (line and int(line.group(1)) > 1) or "row count mismatch" in message:
            with pytest.raises(FormatError) as info:
                reference_load(kind, path)
            assert str(info.value) == message
        return
    want = reference_load(kind, path)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
