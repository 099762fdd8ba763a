"""Matrix bodies parsed in bulk against the line-by-line reference.

One `np.loadtxt` call converts a body; only a body it rejects, or
whose shape, values or labels are faulty, is parsed again line by line.
Values must equal, bit for bit, those of the line-by-line parse in
tests/_oracles.py, and each diagnostic must be the same exception with
the same message, naming the same file line, for a fault on any line
of the file, deep in a long body too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multikd.errors import FormatError
from multikd.formats import load_dataset, load_logits

from _oracles import reference_dataset_rows, reference_matrix_rows

SETTINGS = settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

SPECIAL = [
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,  # subnormal edges
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1 + 0.2, 1 / 3, 2 / 3 * 1e-300, 9007199254740993.0, 0.0, -0.0,  # 17 digits, signed zero
]
SPELLINGS = [repr, "{:.17g}".format, "{:.17e}".format, "{:+.20E}".format]
SEPARATORS = [" ", "  ", "\t", " \t "]


@st.composite
def matrices(draw):
    """A float matrix of random shape; normal, tiny, huge and 17-digit values."""
    n = draw(st.integers(1, 700))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n, c)) * 10.0 ** rng.integers(-330, 300, size=(n, c))
    flat = values.reshape(-1)
    for pos, value in draw(st.lists(
        st.tuples(st.integers(0, n * c - 1),
                  st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)),
        max_size=8,
    )):
        flat[pos] = value
    return values


def write_body(path, header, rows, sep=" "):
    path.write_text(header + "\n" + "".join(sep.join(row) + "\n" for row in rows))


def spelled(matrix, spelling):
    return [[spelling(float(x)) for x in row] for row in matrix]


@SETTINGS
@given(matrices(), st.sampled_from(SPELLINGS), st.sampled_from(SEPARATORS))
def test_logits_bit_identical_to_line_by_line_parse(tmp_path, matrix, spelling, sep):
    n, c = matrix.shape
    path = tmp_path / "t.logits"
    write_body(path, f"#logits v1 n={n} c={c} teacher=t", spelled(matrix, spelling), sep=sep)
    body = path.read_text().splitlines()[1:]
    rows = load_logits(path).rows
    assert rows.tobytes() == reference_matrix_rows(body, c, str(path)).tobytes()
    assert rows.tobytes() == matrix.tobytes()


@SETTINGS
@given(matrices(), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(SPELLINGS), st.sampled_from([str, "+{}".format, "0{}".format]))
def test_dataset_bit_identical_to_line_by_line_parse(tmp_path, matrix, c, seed, spelling, label_spelling):
    n, d = matrix.shape
    labels = np.random.default_rng(seed).integers(0, c, size=n)
    path = tmp_path / "train_A.txt"
    rows = [r + [label_spelling(int(y))] for r, y in zip(spelled(matrix, spelling), labels)]
    write_body(path, f"#dataset v1 n={n} d={d} c={c} modality=A split=train", rows)
    body = path.read_text().splitlines()[1:]
    ds = load_dataset(path)
    features, want_labels = reference_dataset_rows(body, d, c, str(path))
    assert ds.features.tobytes() == features.tobytes() == matrix.tobytes()
    assert ds.labels.tobytes() == want_labels.tobytes()
    assert np.array_equal(ds.labels, labels)


MALFORMED = ["abc", "1..2", "0x1", "1e", "--1", "1,5", "inf0", "nan(1)", "1_", "²"]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"]
BAD_LABELS = ["1.0", "x", "1e3", "٣x", "0x1"]
FAR_LABELS = ["-1", "5", "99999999999999999999999"]  # a dataset here has 5 classes
FAULTS = ["extra column", "missing column", "malformed", "non-finite"]
LABEL_FAULTS = ["bad label", "label range"]
N_CLASSES = 5


def faulty_rows(n, width, seed, faults, labelled=False):
    """Token rows of an n x width matrix (plus labels), then each fault applied.

    A fault is (line, kind, column, pick): `pick` chooses the bad token.
    """
    rows = spelled(np.random.default_rng(seed).normal(size=(n, width)), repr)
    if labelled:
        rows = [row + [str(i % N_CLASSES)] for i, row in enumerate(rows)]
    for line, kind, column, pick in faults:
        row = rows[line]
        if kind == "extra column":
            row.append("1.0")
        elif kind == "missing column":
            row.pop()
        elif kind == "malformed":
            row[column % width] = MALFORMED[pick % len(MALFORMED)]
        elif kind == "non-finite":
            row[column % width] = NON_FINITE[pick % len(NON_FINITE)]
        elif kind == "bad label":
            row[-1] = BAD_LABELS[pick % len(BAD_LABELS)]
        else:
            row[-1] = FAR_LABELS[pick % len(FAR_LABELS)]
    return rows


@st.composite
def fault_cases(draw, kinds):
    """(n, width, seed, faults): one or two faults on random lines."""
    n = draw(st.integers(1, 700))
    width = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    fault = st.tuples(st.integers(0, n - 1), st.sampled_from(kinds), st.integers(0, 9),
                      st.integers(0, 9))
    return n, width, seed, draw(st.lists(fault, min_size=1, max_size=2))


def _message(fn, *args):
    with pytest.raises(FormatError) as info:
        fn(*args)
    return str(info.value)


@SETTINGS
@given(fault_cases(FAULTS))
def test_logits_fault_message_matches_line_by_line_parse(tmp_path, case):
    n, c, seed, faults = case
    path = tmp_path / "t.logits"
    write_body(path, f"#logits v1 n={n} c={c} teacher=t", faulty_rows(n, c, seed, faults))
    body = path.read_text().splitlines()[1:]
    assert _message(load_logits, path) == _message(reference_matrix_rows, body, c, str(path))


@SETTINGS
@given(fault_cases(FAULTS + LABEL_FAULTS))
def test_dataset_fault_message_matches_line_by_line_parse(tmp_path, case):
    n, d, seed, faults = case
    path = tmp_path / "train_A.txt"
    write_body(path, f"#dataset v1 n={n} d={d} c={N_CLASSES} modality=A split=train",
               faulty_rows(n, d, seed, faults, labelled=True))
    body = path.read_text().splitlines()[1:]
    want = _message(reference_dataset_rows, body, d, N_CLASSES, str(path))
    assert _message(load_dataset, path) == want


# The first and last lines of a 700-line body, and lines between.
@pytest.mark.parametrize("line", [0, 255, 256, 300, 699])
@pytest.mark.parametrize("kind", FAULTS)
def test_a_fault_on_any_line_of_a_long_body_names_its_line(tmp_path, line, kind):
    path = tmp_path / "t.logits"
    write_body(path, "#logits v1 n=700 c=3 teacher=t", faulty_rows(700, 3, line, [(line, kind, 1, 0)]))
    body = path.read_text().splitlines()[1:]
    message = _message(load_logits, path)
    assert message.startswith(f"{path}:{line + 2}: ")
    assert message == _message(reference_matrix_rows, body, 3, str(path))
