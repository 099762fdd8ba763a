"""File formats: bit-exact round trips and named rejection diagnostics."""

import numpy as np
import pytest

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
)
from multikd.rng import SplitMix64
from multikd.trainer import init_student

RNG = np.random.default_rng(55)


class TestLogitDump:
    def test_round_trip_bit_exact(self, tmp_path):
        rows = RNG.normal(size=(17, 5)) * np.pi
        path = tmp_path / "dump.txt"
        write_logit_dump(path, "teacher-A", rows)
        loaded = load_logits(path)
        assert loaded.teacher_id == "teacher-A"
        assert loaded.n == 17 and loaded.c == 5
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

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", ""])
    def test_bad_tau_rejected_with_line(self, tmp_path, raw):
        path = tmp_path / "targets.txt"
        path.write_text(f"#targets v1 n=1 c=2 strategy=PKD tau={raw}\n0.5 0.5\n")
        with pytest.raises(FormatError, match=r"targets\.txt:1: tau must be"):
            load_targets(path)


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
