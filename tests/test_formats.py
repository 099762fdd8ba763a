"""File formats: bit-exact round trips and named rejection diagnostics."""

import contextlib
import os
import shutil

import numpy as np
import pytest

import multikd.formats as formats
from multikd.datagen import DataParams, Dataset, gen_dataset
from multikd.errors import FormatError
from multikd.formats import (
    load_all_views,
    load_dataset,
    load_logits,
    load_model,
    load_targets,
    parse_config_file,
    write_all_views,
    write_dataset,
    write_logit_dump,
    write_model,
    write_targets,
    write_weights,
)
from multikd.rng import SplitMix64
from multikd.trainer import StudentModel, init_student

RNG = np.random.default_rng(55)


class TestLogitDump:
    def test_round_trip_bit_exact(self, tmp_path):
        rows = RNG.normal(size=(17, 5)) * np.pi
        path = tmp_path / "dump.txt"
        write_logit_dump(path, "teacher-A", rows)
        loaded = load_logits(path)
        assert loaded.teacher_id == "teacher-A"
        assert loaded.rows.shape == (17, 5)
        assert np.array_equal(loaded.rows, rows)

    def test_empty_matrix_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_logit_dump(tmp_path / "x.txt", "t", np.zeros((0, 3)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#wrong v1 n=1 c=1 teacher=t\n0.0\n")
        with pytest.raises(FormatError, match="bad magic"):
            load_logits(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("#logits v1 n=5 c=2 teacher=t\n" + "0.0 1.0\n" * 4)
        with pytest.raises(FormatError, match="row count mismatch"):
            load_logits(path)

    def test_dimension_past_float_range_is_a_row_count_mismatch(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("#logits v1 n=1" + "0" * 400 + " c=2 teacher=t\n0.0 1.0\n")
        with pytest.raises(FormatError, match="row count mismatch"):
            load_logits(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("#logits v1 n=1 c=2 teacher=t\n0.0 1.0 2.0\n")
        with pytest.raises(FormatError, match="column count mismatch"):
            load_logits(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("#logits v1 n=1 c=2 teacher=t\n0.0 NaN\n")
        with pytest.raises(FormatError, match="non-finite value"):
            load_logits(path)

    def test_bad_teacher_id(self, tmp_path):
        with pytest.raises(FormatError):
            write_logit_dump(tmp_path / "x.txt", "two words", np.zeros((1, 2)))

    def test_empty_teacher_id_in_file_names_its_line(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("#logits v1 n=1 c=2 teacher= \n0.0 1.0\n")
        with pytest.raises(FormatError) as info:
            load_logits(path)
        assert str(info.value).startswith(f"{path}:1: teacher id must be non-empty")

    def test_missing_file(self):
        with pytest.raises(FormatError):
            load_logits("/nonexistent/nowhere.txt")


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path):
        data = gen_dataset(9, DataParams(n_train=30, n_test=10, n_classes=4, dim=6))
        path = tmp_path / "train_A.txt"
        write_dataset(path, data.train_a)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, data.train_a.features)
        assert np.array_equal(loaded.labels, data.train_a.labels)
        assert loaded.modality == "A" and loaded.split == "train"
        assert loaded.n_classes == 4

    def test_all_views_round_trip(self, tmp_path):
        data = gen_dataset(10, DataParams(n_train=20, n_test=10, n_classes=3, dim=4))
        write_all_views(tmp_path / "d", data)
        back = load_all_views(tmp_path / "d")
        for view in ("train_a", "train_b", "train_dark", "test_a", "test_b", "test_dark"):
            assert np.array_equal(getattr(back, view).features, getattr(data, view).features)

    def test_view_from_another_seed_rejected(self, tmp_path):
        params = DataParams(n_train=20, n_test=10, n_classes=3, dim=4)
        write_all_views(tmp_path / "d", gen_dataset(10, params))
        write_all_views(tmp_path / "e", gen_dataset(11, params))
        shutil.copy(tmp_path / "e" / "train_B.txt", tmp_path / "d" / "train_B.txt")
        with pytest.raises(FormatError, match=r"train_B\.txt: labels disagree with .*train_A\.txt"):
            load_all_views(tmp_path / "d")

    def test_view_under_another_name_rejected(self, tmp_path):
        write_all_views(tmp_path, gen_dataset(10, DataParams(n_train=20, n_test=10, n_classes=3, dim=4)))
        shutil.copy(tmp_path / "train_B.txt", tmp_path / "train_A.txt")  # same shape and labels
        with pytest.raises(FormatError, match=r"train_A\.txt:1: header says split=train modality=B"):
            load_all_views(tmp_path)

    @pytest.mark.parametrize(
        "name, change, message",
        [
            ("train_A_dark.txt", lambda ds: (ds.features[:-1], ds.n_classes), "sample counts"),
            ("test_B.txt", lambda ds: (ds.features[:-1], ds.n_classes), "sample counts"),
            ("train_B.txt", lambda ds: (ds.features, ds.n_classes + 1), "class counts"),
            ("test_A_dark.txt", lambda ds: (ds.features[:, :-1], ds.n_classes), "feature widths"),
            ("test_B.txt", lambda ds: (np.hstack([ds.features] * 2), ds.n_classes), "feature widths"),
        ],
    )
    def test_views_that_disagree_rejected(self, tmp_path, name, change, message):
        write_all_views(tmp_path, gen_dataset(10, DataParams(n_train=20, n_test=10, n_classes=3, dim=4)))
        ds = load_dataset(tmp_path / name)
        features, n_classes = change(ds)
        labels = ds.labels[: len(features)]
        write_dataset(tmp_path / name, Dataset(features, labels, n_classes, ds.modality, ds.split))
        with pytest.raises(FormatError, match=rf"{name}: {message} disagree with"):
            load_all_views(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#dataset v1 n=1 d=2 c=3 modality=A split=train\n0.5 0.5 7\n")
        with pytest.raises(FormatError, match="label"):
            load_dataset(path)

    def test_unknown_modality(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#dataset v1 n=1 d=1 c=2 modality=Z split=train\n0.5 1\n")
        with pytest.raises(FormatError, match="modality"):
            load_dataset(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#dataset v1 n=1 d=2 c=2 modality=A split=train\ninf 0.0 1\n")
        with pytest.raises(FormatError, match="non-finite value"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#logits v1 n=1 c=2 teacher=t\n0.0 1.0\n")
        with pytest.raises(FormatError, match="bad magic"):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#dataset v1 n=3 d=1 c=2 modality=A split=train\n0.5 1\n")
        with pytest.raises(FormatError, match="row count mismatch"):
            load_dataset(path)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_student(7, 5, 4, SplitMix64(123))
        model.b1 += RNG.normal(size=5)
        model.b2 += RNG.normal(size=4)
        path = tmp_path / "model.txt"
        write_model(path, model)
        loaded = load_model(path)
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(loaded, attr), getattr(model, attr))

    def test_truncated_body(self, tmp_path):
        model = init_student(3, 2, 2, SplitMix64(1))
        path = tmp_path / "model.txt"
        write_model(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError, match="row count mismatch"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("#notamodel v1 d=1 h=1 c=1\n0.0\n0.0\n0.0\n0.0\n")
        with pytest.raises(FormatError, match="bad magic"):
            load_model(path)


class TestTargetsFile:
    def test_round_trip(self, tmp_path):
        mat = np.abs(RNG.normal(size=(6, 3)))
        mat /= mat.sum(axis=1, keepdims=True)
        path = tmp_path / "targets.txt"
        write_targets(path, "PKD", 4.0, mat)
        strategy, tau, rows = load_targets(path)
        assert strategy == "PKD" and tau == 4.0
        assert np.array_equal(rows, mat)

    def test_unknown_strategy_rejected(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text("#targets v1 n=1 c=2 strategy=BOGUS tau=1.0\n0.5 0.5\n")
        with pytest.raises(FormatError, match="strategy"):
            load_targets(path)

    @pytest.mark.parametrize("dims", ["n=0 c=2", "n=1 c=0"])
    def test_empty_matrix_rejected(self, tmp_path, dims):
        path = tmp_path / "targets.txt"
        path.write_text(f"#targets v1 {dims} strategy=PKD tau=4.0\n")
        with pytest.raises(FormatError, match="empty targets rejected"):
            load_targets(path)

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", ""])
    def test_bad_tau_rejected_with_line(self, tmp_path, raw):
        path = tmp_path / "targets.txt"
        path.write_text(f"#targets v1 n=1 c=2 strategy=PKD tau={raw}\n0.5 0.5\n")
        with pytest.raises(FormatError, match=r"targets\.txt:1: tau must be"):
            load_targets(path)


WRITERS = {
    "logits": lambda path: write_logit_dump(path, "t", np.full((3, 2), 0.25)),
    "dataset": lambda path: write_dataset(
        path, gen_dataset(3, DataParams(n_train=6, n_test=3, n_classes=2, dim=2)).train_a
    ),
    "model": lambda path: write_model(path, init_student(3, 2, 2, SplitMix64(1))),
    "targets": lambda path: write_targets(path, "PKD", 2.0, np.full((3, 2), 0.5)),
    "weights": lambda path: write_weights(path, "PKD", np.full((3, 2), 0.5)),
}


class TestAtomicWriters:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        real_write_atomically = formats.write_atomically
        written = []

        class FillingDisk:  # fails once a header and a row are written
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                if len(written) >= 2:
                    raise OSError("disk full")
                written.extend(text.splitlines())
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        @contextlib.contextmanager
        def failing_write_atomically(target):
            with real_write_atomically(target) as fh:
                yield FillingDisk(fh)

        monkeypatch.setattr(formats, "write_atomically", failing_write_atomically)
        with pytest.raises(OSError, match="disk full"):
            WRITERS[writer](path)
        assert len(written) == 2 and written[0].startswith("#")
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("writer, matrix", [
        (writer, matrix)
        for writer in ("logits", "targets", "weights")
        for matrix in ([[np.nan, 1.0]], [[1.0, np.inf]], [0.5, 0.5], np.zeros((0, 2)), np.zeros((2, 0)), 1.0)
    ] + [
        ("dataset", Dataset([[0.5, np.nan]], [0], 2, "A", "train")),
        ("dataset", Dataset(np.zeros((2, 0)), [0, 1], 2, "A", "train")),
        ("model", StudentModel([[np.inf]], [0.0], [[1.0]], [0.0])),
        ("model", StudentModel([[1.0]], [0.0], [[1.0]], [np.nan])),
        ("targets of strategy FOO", [[1.0]]),
        ("targets at tau nan", [[1.0]]),
    ])
    def test_writer_refuses_what_the_loader_rejects(self, tmp_path, writer, matrix):
        write = {
            "logits": lambda path: write_logit_dump(path, "t", matrix),
            "targets": lambda path: write_targets(path, "PKD", 2.0, matrix),
            "targets of strategy FOO": lambda path: write_targets(path, "FOO", 2.0, matrix),
            "targets at tau nan": lambda path: write_targets(path, "PKD", float("nan"), matrix),
            "weights": lambda path: write_weights(path, "PKD", matrix),
            "dataset": lambda path: write_dataset(path, matrix),
            "model": lambda path: write_model(path, matrix),
        }[writer]
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        with pytest.raises(FormatError, match="needs non-empty 2-D matrices|rejects non-finite|rejects unknown"):
            write(path)
        assert path.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_unwritable_target_named_in_error(self, tmp_path, writer):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            WRITERS[writer](target)
        assert str(info.value) == f"[Errno 2] No such file or directory: '{target}'"
        (tmp_path / "dir.txt").mkdir()
        with pytest.raises(IsADirectoryError):
            WRITERS[writer](tmp_path / "dir.txt")
        assert sorted(os.listdir(tmp_path)) == ["dir.txt"]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_directory_target_named_in_error(self, tmp_path, writer):
        # open succeeds on the temporary file; the final move onto a directory fails
        target = tmp_path / "dir.txt"
        target.mkdir()
        with pytest.raises(OSError) as info:
            WRITERS[writer](target)
        exc = info.value
        assert str(exc) == f"[Errno {exc.errno}] {exc.strerror}: '{target}'"
        assert os.listdir(tmp_path) == ["dir.txt"] and os.listdir(target) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_write_replaces_old_file(self, tmp_path, writer):
        WRITERS[writer](tmp_path / "fresh.txt")
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        WRITERS[writer](path)
        assert path.read_bytes() == (tmp_path / "fresh.txt").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.txt", "out.txt"]


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "seed = 7\n"
            "strategy = PKD\n"
            "tau = 4.5\n"
            "teacher = a.txt\n"
            "teacher = b.txt\n"
            "\n"
        )
        values = parse_config_file(path)
        assert values["seed"] == "7"
        assert values["strategy"] == "PKD"
        assert values["teacher"] == ["a.txt", "b.txt"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 3\n")
        with pytest.raises(FormatError, match="unknown key"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 7\n")
        with pytest.raises(FormatError, match="key = value"):
            parse_config_file(path)

    def test_duplicate_scalar_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(FormatError, match="duplicate"):
            parse_config_file(path)
