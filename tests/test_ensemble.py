"""Reference distributions, teacher weighting, and target assembly.

References and similarities are checked on the row kernels that
compute_weights runs: _reference_rows and _inverse_ce. The inverse-KL
similarity is the reference 1 / max(kl_rows, 1e-12) of _oracles.py,
which equals _inverse_ce bit for bit on one-hot references.
"""

import math

import numpy as np
import pytest

import multikd as mk
from multikd import (
    EnsembleWeights,
    PkdParams,
    TeacherBank,
    assemble,
    build_targets,
    compute_weights,
)
from multikd.ensemble import _inverse_ce, _reference_rows
from multikd.errors import ValidationError
from multikd.numerics import EPS, softmax_t

from _oracles import dec_cross_entropy, dec_kl, kl_rows, validate_prob_row

RNG = np.random.default_rng(31337)


def random_bank(n=6, c=5, k=3, scale=3.0):
    mats = [RNG.normal(size=(n, c)) * scale for _ in range(k)]
    return TeacherBank(mats, [f"t{i}" for i in range(k)])


def gtd_row(label, n_classes):
    return _reference_rows(np.array([label]), n_classes, mk.GTD, None)[0]


def pkd_row(label, params):
    return _reference_rows(np.array([label]), params.n_classes, mk.PKD, params)[0]


def similarity_kl(reference, teacher_dist):
    return 1.0 / max(float(kl_rows(np.asarray(reference), np.asarray(teacher_dist))), EPS)


def similarity_ce(reference, teacher_dist):
    return float(_inverse_ce(np.asarray(reference), np.asarray(teacher_dist)))


class TestReferences:
    def test_gtd_onehot(self):
        assert np.array_equal(gtd_row(2, 4), [0.0, 0.0, 1.0, 0.0])

    def test_gtd_single_class(self):
        assert np.array_equal(gtd_row(0, 1), [1.0])

    def test_gtd_equals_pkd_at_h_one(self):
        for c in (2, 5, 11):
            for label in (0, c - 1):
                assert np.array_equal(gtd_row(label, c), pkd_row(label, PkdParams(1.0, c)))

    def test_gtd_label_out_of_range(self):
        bank = random_bank(n=1, c=4, k=2)
        with pytest.raises(ValidationError):
            compute_weights(bank, [4], mk.GTD)

    def test_pkd_values(self):
        row = pkd_row(3, PkdParams(0.99, 11))
        assert row[3] == 0.99
        off = np.delete(row, 3)
        assert np.allclose(off, 0.001, atol=1e-15)

    def test_pkd_sums_to_one(self):
        for c in (2, 7, 30):
            for h in (1.0 / c + 1e-6, 0.5 + 0.5 / c, 0.99, 1.0):
                row = pkd_row(1, PkdParams(h, c))
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pkd_rejects_h_at_or_below_uniform(self):
        with pytest.raises(ValidationError):
            PkdParams(1.0 / 3.0, 3)
        with pytest.raises(ValidationError):
            PkdParams(0.2, 3)

    def test_pkd_rejects_single_class(self):
        # off-class mass is undefined at C=1, whatever h is
        with pytest.raises(ValidationError):
            PkdParams(0.9, 1)
        with pytest.raises(ValidationError):
            PkdParams(1.0, 1)


class TestSimilarities:
    def test_kl_onehot_vs_uniform(self):
        val = similarity_kl([1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_kl_saturates_on_identical_rows(self):
        row = [0.25, 0.25, 0.5]
        assert similarity_kl(row, row) == pytest.approx(1e12)

    def test_kl_derived_oracle(self):
        ref = pkd_row(0, PkdParams(0.9, 3))
        teacher = [0.8, 0.1, 0.1]
        frozen = 27.25537251233703  # 1 / dec_kl
        assert 1.0 / dec_kl(ref, teacher) == pytest.approx(frozen, rel=1e-15)
        assert similarity_kl(ref, teacher) == pytest.approx(frozen, rel=1e-12)

    def test_ce_unit_value(self):
        teacher = np.array([math.exp(-1.0), 0.0, 0.0])
        teacher[1] = teacher[2] = (1.0 - teacher[0]) / 2.0
        assert similarity_ce([1.0, 0.0, 0.0], teacher) == pytest.approx(1.0, rel=1e-12)

    def test_ce_uniform_pair(self):
        c = 6
        uniform = [1.0 / c] * c
        assert similarity_ce(uniform, uniform) == pytest.approx(1.0 / math.log(c), rel=1e-12)

    def test_ce_derived_oracle(self):
        ref = pkd_row(0, PkdParams(0.9, 3))
        teacher = [0.8, 0.1, 0.1]
        frozen = 2.3197135693801558  # 1 / dec_cross_entropy = 1 / (-0.9 ln 0.8 - 0.1 ln 0.1)
        assert 1.0 / dec_cross_entropy(ref, teacher) == pytest.approx(frozen, rel=1e-15)
        assert similarity_ce(ref, teacher) == pytest.approx(frozen, rel=1e-12)

    def test_onehot_kl_ce_equivalence(self):
        for _ in range(300):
            c = int(RNG.integers(2, 12))
            label = int(RNG.integers(c))
            row = RNG.random(c) + 1e-4
            row /= row.sum()
            ref = gtd_row(label, c)
            assert _inverse_ce(ref, row) == 1.0 / max(kl_rows(ref, row), EPS)


class TestComputeWeights:
    def test_identical_teachers_uniform_weights(self):
        n, c, k = 5, 4, 3
        base = RNG.normal(size=(n, c))
        bank = TeacherBank([base.copy() for _ in range(k)], [f"t{i}" for i in range(k)])
        labels = RNG.integers(c, size=n)
        for mode, params in ((mk.GTD, None), (mk.PKD, PkdParams(0.9, c))):
            w = compute_weights(bank, labels, mode, params)
            assert np.allclose(w.normalized, 1.0 / k, atol=1e-12)

    def test_single_teacher_weight_one(self):
        bank = random_bank(k=1)
        labels = RNG.integers(bank.c, size=bank.n)
        w = compute_weights(bank, labels, mk.GTD)
        assert np.array_equal(w.normalized, np.ones((bank.n, 1)))

    def test_two_teacher_oracle(self):
        # teacher 1 fixed distribution [0.8,0.1,0.1], teacher 2 uniform; PKD(h=0.9)
        logit1 = np.log(np.array([[0.8, 0.1, 0.1]]))
        logit2 = np.zeros((1, 3))
        bank = TeacherBank([logit1, logit2], ["a", "b"])
        w = compute_weights(bank, [0], mk.PKD, PkdParams(0.9, 3), weight_tau=1.0)
        s1 = 2.3197135693801558  # frozen: 1/CE(pkd ref, [0.8,0.1,0.1])
        s2 = 1.0 / math.log(3.0)
        assert w.raw[0, 0] == pytest.approx(s1, rel=1e-12)
        assert w.raw[0, 1] == pytest.approx(s2, rel=1e-12)
        assert w.normalized[0, 0] == pytest.approx(s1 / (s1 + s2), rel=1e-12)
        assert w.normalized[0, 1] == pytest.approx(s2 / (s1 + s2), rel=1e-12)

    def test_simplex_invariant(self):
        for _ in range(50):
            bank = random_bank(
                n=int(RNG.integers(1, 7)), c=int(RNG.integers(2, 9)), k=int(RNG.integers(1, 6))
            )
            labels = RNG.integers(bank.c, size=bank.n)
            mode = mk.PKD if RNG.random() < 0.5 else mk.GTD
            params = PkdParams(0.95, bank.c) if mode == mk.PKD else None
            w = compute_weights(bank, labels, mode, params)
            sums = w.normalized.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert ((w.normalized > 0.0) & (w.normalized <= 1.0)).all()

    def test_monotonicity_lower_ce_higher_weight(self):
        bank = random_bank(n=40, c=6, k=4)
        labels = RNG.integers(bank.c, size=bank.n)
        params = PkdParams(0.9, bank.c)
        w = compute_weights(bank, labels, mk.PKD, params)
        refs = np.array([pkd_row(y, params) for y in labels])
        ces = np.stack(
            [-(refs * np.log(softmax_t(t, 1.0))).sum(axis=1) for t in bank.teachers], axis=1
        )
        for n in range(bank.n):
            order_ce = np.argsort(ces[n])
            order_w = np.argsort(-w.normalized[n])
            assert np.array_equal(order_ce, order_w)

    def test_scale_invariance_of_normalization(self):
        raw = RNG.random((10, 4)) + 0.1
        a = EnsembleWeights.from_raw(raw)
        b = EnsembleWeights.from_raw(raw * 837.25)
        assert np.max(np.abs(a.normalized - b.normalized)) < 1e-12

    def test_pkd_converges_to_gtd_as_h_to_one(self):
        bank = random_bank(n=30, c=8, k=3)
        labels = RNG.integers(bank.c, size=bank.n)
        gtd = compute_weights(bank, labels, mk.GTD)
        pkd = compute_weights(bank, labels, mk.PKD, PkdParams(1.0 - 1e-9, bank.c))
        assert np.max(np.abs(gtd.normalized - pkd.normalized)) < 1e-6

    def test_misaligned_labels_rejected(self):
        bank = random_bank(n=4)
        with pytest.raises(ValidationError):
            compute_weights(bank, [0, 1], mk.GTD)


class TestAssemble:
    def test_identical_rows_fixed_point(self):
        n, c = 4, 5
        base = RNG.normal(size=(n, c))
        bank = TeacherBank([base.copy(), base.copy()], ["a", "b"])
        weights = EnsembleWeights.from_raw(RNG.random((n, 2)) + 0.2)
        out = assemble(bank, weights, assembly_tau=2.0)
        assert np.allclose(out, softmax_t(base, 2.0), atol=1e-12)

    def test_degenerate_weights_pick_one_teacher(self):
        bank = random_bank(n=3, c=4, k=3)
        raw = np.full((3, 3), 1e-9)
        raw[:, 1] = 1.0
        weights = EnsembleWeights.from_raw(raw)
        out = assemble(bank, weights, assembly_tau=1.5)
        assert np.max(np.abs(out - softmax_t(bank.teachers[1], 1.5))) < 1e-6

    def test_midpoint(self):
        q1 = np.log(np.array([[0.8, 0.2]]))
        q2 = np.log(np.array([[0.2, 0.8]]))
        bank = TeacherBank([q1, q2], ["a", "b"])
        weights = EnsembleWeights(np.ones((1, 2)), np.array([[0.5, 0.5]]))
        out = assemble(bank, weights, assembly_tau=1.0)
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-12)

    def test_rows_are_distributions(self):
        bank = random_bank(n=50, c=7, k=4, scale=8.0)
        labels = RNG.integers(bank.c, size=bank.n)
        w = compute_weights(bank, labels, mk.PKD, PkdParams(0.99, bank.c))
        out = assemble(bank, w, assembly_tau=4.0)
        validate_prob_row(out)

    def test_unnormalized_weights_rejected(self):
        bank = random_bank(n=2, c=3, k=2)
        bad = EnsembleWeights(np.ones((2, 2)), np.full((2, 2), 0.7))
        with pytest.raises(ValidationError):
            assemble(bank, bad, 1.0)


class TestBuildTargets:
    def test_k1_all_strategies_collapse_to_kd_single(self):
        bank = random_bank(k=1)
        labels = RNG.integers(bank.c, size=bank.n)
        ref = build_targets(bank, labels, mk.DistillConfig(strategy=mk.KD_SINGLE)).targets[0]
        for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
            out = build_targets(bank, labels, mk.DistillConfig(strategy=tag)).targets
            assert len(out) == 1
            assert np.max(np.abs(out[0] - ref)) < 1e-12

    def test_identical_teachers_all_strategies_coincide(self):
        n, c = 5, 4
        base = RNG.normal(size=(n, c))
        bank = TeacherBank([base.copy(), base.copy()], ["a", "b"])
        labels = RNG.integers(c, size=n)
        ref = softmax_t(base, 4.0)
        for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
            for mat in build_targets(bank, labels, mk.DistillConfig(strategy=tag)).targets:
                assert np.max(np.abs(mat - ref)) < 1e-12

    def test_avg2_is_elementwise_mean(self):
        bank = random_bank(k=3)
        labels = RNG.integers(bank.c, size=bank.n)
        config = mk.DistillConfig(strategy=mk.AVG2, tau=2.5)
        out = build_targets(bank, labels, config).targets[0]
        mean = sum(softmax_t(t, 2.5) for t in bank.teachers) / 3.0
        assert np.max(np.abs(out - mean)) < 1e-12

    def test_avg1_targets_do_not_grow_with_teachers(self):
        def avg1_nbytes(k):
            bank = random_bank(k=k)
            labels = RNG.integers(bank.c, size=bank.n)
            out = build_targets(bank, labels, mk.DistillConfig(strategy=mk.AVG1))
            return sum(t.nbytes for t in out.targets) + out.gap.nbytes

        assert avg1_nbytes(2) == avg1_nbytes(50)

    def test_kd_single_rejects_multiple_teachers(self):
        bank = random_bank(k=2)
        labels = RNG.integers(bank.c, size=bank.n)
        with pytest.raises(ValidationError):
            build_targets(bank, labels, mk.DistillConfig(strategy=mk.KD_SINGLE))

    def test_pkd_weights_attached(self):
        bank = random_bank(k=2)
        labels = RNG.integers(bank.c, size=bank.n)
        out = build_targets(bank, labels, mk.DistillConfig(strategy=mk.PKD))
        assert out.weights is not None
        assert out.weights.normalized.shape == (bank.n, 2)
