"""Synthetic data generator: determinism, alignment, balance, and the
block draws against the scalar draw loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multikd.datagen import DataParams, Dataset, gen_dataset
from multikd.errors import ValidationError
from multikd.preprocess import darken, gamma_correct

from _oracles import reference_gen_dataset

SMALL = DataParams(n_train=200, n_test=100, n_classes=5, dim=8, noise=0.1)


def test_same_seed_bit_identical():
    a = gen_dataset(42, SMALL)
    b = gen_dataset(42, SMALL)
    for view in ("train_a", "train_b", "train_dark", "test_a", "test_b", "test_dark"):
        assert np.array_equal(getattr(a, view).features, getattr(b, view).features)
        assert np.array_equal(getattr(a, view).labels, getattr(b, view).labels)


def test_different_seeds_differ():
    a = gen_dataset(1, SMALL)
    b = gen_dataset(2, SMALL)
    assert not np.array_equal(a.train_a.features, b.train_a.features)


def test_cross_modality_alignment():
    data = gen_dataset(7, SMALL)
    assert np.array_equal(data.train_a.labels, data.train_b.labels)
    assert np.array_equal(data.train_a.labels, data.train_dark.labels)
    assert np.array_equal(data.test_a.labels, data.test_b.labels)
    assert np.array_equal(data.test_a.labels, data.test_dark.labels)



def test_each_view_holds_its_labels_in_an_array_of_its_own():
    data = gen_dataset(7, SMALL)
    for split in ("train", "test"):
        views = [getattr(data, f"{split}_{name}").labels for name in ("a", "b", "dark")]
        for i, labels in enumerate(views):
            for other in views[i + 1 :]:
                assert np.array_equal(labels, other) and not np.shares_memory(labels, other)

def test_split_shapes_and_ranges():
    data = gen_dataset(3, SMALL)
    assert data.train_a.features.shape == (200, 4)
    assert data.train_b.features.shape == (200, 4)
    assert data.test_a.features.shape == (100, 4)
    for view in ("train_a", "train_b", "train_dark"):
        feats = getattr(data, view).features
        assert feats.min() >= 0.0 and feats.max() <= 1.0


def test_train_test_streams_disjoint():
    # distinct derived streams: the first train row never equals the first test row
    data = gen_dataset(19, SMALL)
    assert not np.allclose(data.train_a.features[0], data.test_a.features[0])


def test_dark_view_is_darken_then_gamma():
    params = SMALL
    data = gen_dataset(5, params)
    expected = gamma_correct(
        darken(data.train_a.features, params.dark_factor, params.quant_levels), params.gamma
    )
    assert np.array_equal(data.train_dark.features, expected)


def test_zero_noise_samples_sit_on_centers():
    params = DataParams(n_train=50, n_test=20, n_classes=4, dim=6, noise=0.0)
    data = gen_dataset(11, params)
    full = np.hstack([data.train_a.features, data.train_b.features])
    by_label = {}
    for row, label in zip(full, data.train_a.labels):
        by_label.setdefault(int(label), []).append(row)
    for rows in by_label.values():
        assert np.max(np.abs(np.asarray(rows) - rows[0])) == 0.0


def test_class_balance_at_defaults():
    data = gen_dataset(123, DataParams())
    counts = np.bincount(data.train_a.labels, minlength=11)
    n = data.train_a.n
    assert np.max(np.abs(counts - n / 11)) < 5.0 * np.sqrt(n)


def test_invalid_params_rejected():
    with pytest.raises(ValidationError):
        gen_dataset(0, DataParams(dim=7))  # odd dim
    with pytest.raises(ValidationError):
        gen_dataset(0, DataParams(n_classes=1))
    with pytest.raises(ValidationError):
        gen_dataset(0, DataParams(noise=-0.1))
    with pytest.raises(ValidationError):
        gen_dataset(0, DataParams(n_train=0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(1, 60), st.integers(1, 30), st.integers(2, 12),
       st.integers(1, 8), st.floats(0.0, 2.0))
@example(0, 2000, 1000, 11, 10, 0.15)  # package defaults at seed 0
@example(2**64 - 1, 3, 1, 2, 1, 0.0)
def test_block_draws_match_the_scalar_draw_loop(seed, n_train, n_test, n_classes, half, noise):
    params = DataParams(n_train=n_train, n_test=n_test, n_classes=n_classes, dim=2 * half,
                        noise=noise)
    data = gen_dataset(seed, params)
    for split, (features, labels) in reference_gen_dataset(seed, params).items():
        a, b = data.view(split, "A"), data.view(split, "B")
        assert a.features.tobytes() == features[:, :half].tobytes(), split
        assert b.features.tobytes() == features[:, half:].tobytes(), split
        for view in (a, b, data.view(split, "A_dark")):
            assert view.labels.tobytes() == labels.tobytes(), split


@pytest.mark.parametrize("labels, message", [
    ([0.5, 1.7], "labels must be integers"),
    ([0, 5], r"labels must lie in \[0, 3\)"),
    ([[0, 1]], "labels must be a non-empty 1-D vector"),
    ([2.0, 0.0], "labels must be integers"),
    ([], "labels must be a non-empty 1-D vector"),
])
def test_dataset_refuses_the_labels_validate_labels_refuses(labels, message):
    with pytest.raises(ValidationError, match=message):
        Dataset(np.zeros((2, 2)), labels, 3, "A", "train")
