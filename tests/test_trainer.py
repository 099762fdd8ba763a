"""Losses, analytic gradients, the SGD loop, and evaluation.

The loss functions are the reference math of _oracles.py, checked here
against frozen values and identities. The step itself is checked
through train (one epoch of one full batch takes one step) and through
the gradients one real step writes (_oracles.step_gradients).
"""

import math

import numpy as np
import pytest

import multikd as mk
from multikd import (
    DistillConfig,
    StudentModel,
    TargetSet,
    evaluate,
    forward,
    init_student,
    train,
)
from multikd.datagen import MODALITY_A, MODALITY_A_DARK, MODALITY_B, gen_dataset
from multikd.errors import NumericalError, ValidationError
from multikd.ensemble import TeacherBank, build_targets
from multikd.rng import SplitMix64

from _oracles import (
    avg1_loss, ce_loss, entropy_rows, fd_gradient, kd_loss, loss_gradient, reference_forward, rel_err, soften,
    step_gradients, total_loss,
)

RNG = np.random.default_rng(777)


def random_targets(strategy, n, c, k=2, tau=2.0, seed_offset=0):
    rng = np.random.default_rng(1000 + seed_offset)
    bank = TeacherBank([rng.normal(size=(n, c)) * 2.0 for _ in range(k)], [f"t{i}" for i in range(k)])
    labels = rng.integers(c, size=n)
    if strategy == mk.NONE:
        return TargetSet(mk.NONE), labels
    config = DistillConfig(strategy=strategy, tau=tau)
    if strategy == mk.KD_SINGLE:
        bank = TeacherBank([bank.teachers[0]], ["t0"])
    return build_targets(bank, labels, config), labels


class TestCeLoss:
    def test_perfect_prediction_zero(self):
        probs = np.eye(4)[[0, 2, 3]]
        assert ce_loss(probs, [0, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_log_c(self):
        probs = np.full((5, 8), 1.0 / 8.0)
        labels = RNG.integers(8, size=5)
        assert ce_loss(probs, labels) == pytest.approx(math.log(8.0), rel=1e-12)

    def test_two_row_value(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        expected = -(math.log(0.7) + math.log(0.6)) / 2.0  # 0.43375028385236158 by direct evaluation
        assert ce_loss(probs, [0, 1]) == pytest.approx(expected, rel=1e-14)
        assert ce_loss(probs, [0, 1]) == pytest.approx(0.43375028385236158, rel=1e-14)

    def test_misaligned_rejected(self):
        with pytest.raises(ValidationError):
            ce_loss(np.full((3, 2), 0.5), [0, 1])


class TestKdLoss:
    def test_zero_when_student_matches(self):
        logits = RNG.normal(size=(6, 5))
        target = soften(logits, 3.0)
        assert kd_loss(logits, target, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_tau_squared_prefactor(self):
        # same target/student distributions, doubled tau: loss scales by 4
        target = np.array([[0.6, 0.4]])
        kl = 0.020135513550688864  # frozen: KL([0.6,0.4] || [0.5,0.5]) via decimal oracle
        assert kd_loss(np.zeros((1, 2)), target, 1.0) == pytest.approx(kl, rel=1e-12)
        assert kd_loss(np.zeros((1, 2)), target, 2.0) == pytest.approx(4.0 * kl, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kd_loss(np.zeros((2, 3)), np.full((2, 2), 0.5), 1.0)


class TestAvg1Loss:
    def test_single_target_equals_kd(self):
        logits = RNG.normal(size=(4, 3))
        target = soften(RNG.normal(size=(4, 3)), 2.0)
        assert avg1_loss(logits, [target], 2.0) == kd_loss(logits, target, 2.0)

    def test_identical_targets_equal_kd(self):
        logits = RNG.normal(size=(4, 3))
        target = soften(RNG.normal(size=(4, 3)), 2.0)
        assert avg1_loss(logits, [target, target.copy()], 2.0) == pytest.approx(
            kd_loss(logits, target, 2.0), rel=1e-14
        )

    def test_mean_of_two(self):
        logits = RNG.normal(size=(5, 4))
        t1 = soften(RNG.normal(size=(5, 4)), 2.0)
        t2 = soften(RNG.normal(size=(5, 4)), 2.0)
        expected = 0.5 * (kd_loss(logits, t1, 2.0) + kd_loss(logits, t2, 2.0))
        assert avg1_loss(logits, [t1, t2], 2.0) == pytest.approx(expected, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            avg1_loss(np.zeros((1, 2)), [], 1.0)


class TestTotalLoss:
    def test_alpha_one_reduces_to_ce(self):
        targets, labels = random_targets(mk.PKD, 6, 4)
        logits = RNG.normal(size=(6, 4))
        config = DistillConfig(strategy=mk.PKD, alpha=1.0)
        assert total_loss(logits, labels, targets, config) == pytest.approx(
            ce_loss(soften(logits, 1.0), labels), rel=1e-12
        )

    def test_alpha_zero_matching_student_is_zero(self):
        teacher = RNG.normal(size=(5, 3))
        bank = TeacherBank([teacher], ["t"])
        labels = RNG.integers(3, size=5)
        config = DistillConfig(strategy=mk.KD_SINGLE, alpha=0.0, tau=2.0)
        targets = build_targets(bank, labels, config)
        assert total_loss(teacher, labels, targets, config) == pytest.approx(0.0, abs=1e-12)

    def test_affine_combination(self):
        targets, labels = random_targets(mk.KD_SINGLE, 4, 3, k=1)
        logits = RNG.normal(size=(4, 3))
        a = total_loss(logits, labels, targets, DistillConfig(strategy=mk.KD_SINGLE, alpha=1.0))
        b = total_loss(logits, labels, targets, DistillConfig(strategy=mk.KD_SINGLE, alpha=0.0))
        mid = total_loss(logits, labels, targets, DistillConfig(strategy=mk.KD_SINGLE, alpha=0.5))
        assert mid == pytest.approx((a + b) / 2.0, rel=1e-12)

    def test_none_is_plain_ce(self):
        # the baseline ignores alpha entirely: it is pure label cross-entropy
        logits = RNG.normal(size=(5, 4))
        labels = RNG.integers(4, size=5)
        for alpha in (0.0, 0.3, 1.0):
            config = DistillConfig(strategy=mk.NONE, alpha=alpha)
            assert total_loss(logits, labels, TargetSet(mk.NONE), config) == pytest.approx(
                ce_loss(soften(logits, 1.0), labels), rel=1e-14
            )

    def test_strategy_mismatch_rejected(self):
        targets, labels = random_targets(mk.PKD, 3, 4)
        model = init_student(2, 3, 4, SplitMix64(0))
        with pytest.raises(ValidationError, match="target set built for PKD, config says AVG2"):
            train(model, RNG.random((3, 2)), labels, targets, DistillConfig(strategy=mk.AVG2))


class TestLossGradient:
    def test_stationary_at_match(self):
        teacher = RNG.normal(size=(4, 3))
        bank = TeacherBank([teacher], ["t"])
        labels = np.argmax(teacher, axis=1)  # labels consistent with p1 at the optimum? use alpha=0
        config = DistillConfig(strategy=mk.KD_SINGLE, alpha=0.0, tau=2.0)
        targets = build_targets(bank, labels, config)
        grad = loss_gradient(teacher, labels, targets, config)
        assert np.max(np.abs(grad)) < 1e-12

    def test_rows_sum_to_zero(self):
        for strategy in mk.STRATEGIES:
            targets, labels = random_targets(strategy, 6, 5, k=1 if strategy == mk.KD_SINGLE else 3)
            config = DistillConfig(strategy=strategy, tau=2.5)
            grad = loss_gradient(RNG.normal(size=(6, 5)), labels, targets, config)
            assert np.max(np.abs(grad.sum(axis=1))) < 1e-10

    def test_finite_difference_all_strategies(self):
        for case, strategy in enumerate(mk.STRATEGIES * 4):
            n, c = int(RNG.integers(2, 6)), int(RNG.integers(2, 5))
            k = 1 if strategy == mk.KD_SINGLE else int(RNG.integers(1, 4))
            targets, labels = random_targets(strategy, n, c, k=k, seed_offset=case)
            config = DistillConfig(strategy=strategy, alpha=0.4, tau=1.7)
            logits = RNG.normal(size=(n, c)) * 2.0

            def scalar(flat, logits=logits, labels=labels, targets=targets, config=config):
                return total_loss(flat.reshape(logits.shape), labels, targets, config)

            numeric = fd_gradient(scalar, logits.ravel()).reshape(logits.shape)
            analytic = loss_gradient(logits, labels, targets, config)
            assert rel_err(analytic, numeric) <= 1e-4


class TestAvg1Avg2Identity:
    def test_gradients_identical_and_gap_is_entropy_difference(self):
        for case in range(25):
            rng = np.random.default_rng(5000 + case)
            n, c, k = int(rng.integers(2, 7)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
            bank = TeacherBank([rng.normal(size=(n, c)) * 3.0 for _ in range(k)],
                               [f"t{i}" for i in range(k)])
            labels = rng.integers(c, size=n)
            tau = float(rng.uniform(0.5, 6.0))
            cfg1 = DistillConfig(strategy=mk.AVG1, tau=tau, alpha=0.3)
            cfg2 = DistillConfig(strategy=mk.AVG2, tau=tau, alpha=0.3)
            t1 = build_targets(bank, labels, cfg1)
            t2 = build_targets(bank, labels, cfg2)
            logits = rng.normal(size=(n, c)) * 2.0
            g1 = loss_gradient(logits, labels, t1, cfg1)
            g2 = loss_gradient(logits, labels, t2, cfg2)
            assert np.max(np.abs(g1 - g2)) < 1e-10

            softened = [soften(t, tau) for t in bank.teachers]
            kd1 = avg1_loss(logits, softened, tau)
            kd2 = kd_loss(logits, t2.targets[0], tau)
            mean_target = np.mean(softened, axis=0)
            per_teacher_h = np.mean([entropy_rows(t) for t in softened], axis=0)
            gap_expected = tau * tau * np.mean(entropy_rows(mean_target) - per_teacher_h)
            assert kd1 - kd2 == pytest.approx(gap_expected, abs=1e-9)
            assert kd1 - kd2 >= -1e-10

    def test_training_on_avg1_and_avg2_targets_moves_identical_bits(self):
        # 23 rows in batches of 4: the last batch of every epoch holds 3
        rng = np.random.default_rng(6100)
        n, d, c, k = 23, 5, 4, 3
        features = rng.random((n, d))
        labels = rng.integers(c, size=n)
        bank = TeacherBank([rng.normal(size=(n, c)) * 3.0 for _ in range(k)],
                           [f"t{i}" for i in range(k)])
        runs = {}
        for strategy in (mk.AVG1, mk.AVG2):
            config = DistillConfig(strategy=strategy, tau=3.0, alpha=0.4, lr=0.2, batch_size=4,
                                   epochs=3, seed=17)
            model = init_student(d, 6, c, SplitMix64(17))
            train(model, features, labels, build_targets(bank, labels, config), config)
            runs[strategy] = model.data.tobytes()
        assert runs[mk.AVG1] == runs[mk.AVG2]


class TestForward:
    def test_zero_model_zero_logits(self):
        model = StudentModel(np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        assert np.array_equal(forward(model, np.ones((5, 4))), np.zeros((5, 2)))

    def test_negative_preactivations_yield_bias(self):
        model = StudentModel(
            w1=np.full((3, 2), -1.0), b1=np.zeros(3), w2=RNG.normal(size=(4, 3)), b2=np.arange(4.0)
        )
        out = forward(model, np.full((2, 2), 0.5))
        assert np.allclose(out, np.tile(np.arange(4.0), (2, 1)))

    def test_matches_triple_loop_oracle(self):
        model = StudentModel(
            RNG.normal(size=(4, 3)), RNG.normal(size=4), RNG.normal(size=(5, 4)), RNG.normal(size=5)
        )
        x = RNG.normal(size=(6, 3))
        expected = np.empty((6, 5))
        for n in range(6):
            hidden = [max(0.0, sum(model.w1[i, j] * x[n, j] for j in range(3)) + model.b1[i])
                      for i in range(4)]
            for c in range(5):
                expected[n, c] = sum(model.w2[c, i] * hidden[i] for i in range(4)) + model.b2[c]
        assert np.max(np.abs(forward(model, x) - expected)) < 1e-12

    # forward's products go through ndarray.dot; outside the step the
    # pipeline runs them on 2000-row teacher inputs and 1000-row test
    # inputs, and gen_dataset's A and B views are column slices of one
    # array, so their rows are not contiguous
    @pytest.mark.parametrize("split, modality, contiguous", [
        ("train", MODALITY_A, False),
        ("train", MODALITY_B, False),
        ("test", MODALITY_A, False),
        ("train", MODALITY_A_DARK, True),
    ])
    def test_pipeline_shapes_match_matmul_bit_for_bit(self, split, modality, contiguous):
        features = gen_dataset(5).view(split, modality).features
        assert features.flags.c_contiguous == contiguous
        rng = np.random.default_rng(32)
        model = init_student(features.shape[1], 32, 11, SplitMix64(9))
        model.b1 = rng.normal(size=32) * 0.5  # relu keeps some units and zeroes others
        model.b2 = rng.normal(size=11)
        for x in (features, np.ascontiguousarray(features), features[:37]):
            assert forward(model, x).tobytes() == reference_forward(model, x)[0].tobytes()

    def test_dim_mismatch(self):
        model = StudentModel(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            forward(model, np.zeros((1, 4)))


class TestBackwardStep:
    def _setup(self, strategy=mk.PKD, n=8, d=5, c=4, hidden=4, seed=0):
        rng = np.random.default_rng(9000 + seed)
        features = rng.random((n, d))
        targets, labels = random_targets(strategy, n, c, seed_offset=seed)
        model = init_student(d, hidden, c, SplitMix64(seed))
        return model, features, labels, targets

    @staticmethod
    def one_step(model, features, labels, targets, config):
        """One SGD step over all rows, in place."""
        train(model, features, labels, targets, config.with_(epochs=1, batch_size=len(labels)))

    def test_vanishing_lr_keeps_model(self):
        # lr must be positive by config contract; a denormal step is the
        # closest legal probe. Nonzero weights stay bit-identical (the
        # update is far below one ulp); exact-zero biases can only pick
        # up denormal-sized dust.
        model, features, labels, targets = self._setup()
        before = model.copy()
        config = DistillConfig(strategy=mk.PKD, lr=1e-300)
        self.one_step(model, features, labels, targets, config)
        assert np.array_equal(model.w1, before.w1)
        assert np.array_equal(model.w2, before.w2)
        assert np.max(np.abs(model.b1 - before.b1)) < 1e-290
        assert np.max(np.abs(model.b2 - before.b2)) < 1e-290

    def test_single_sample_descent(self):
        model, *_ = self._setup(n=1)
        rng = np.random.default_rng(4)
        features = rng.random((1, 5))
        targets, labels = random_targets(mk.KD_SINGLE, 1, 4, k=1)
        config = DistillConfig(strategy=mk.KD_SINGLE, lr=1e-3)
        loss_before = total_loss(forward(model, features), labels, targets, config)
        self.one_step(model, features, labels, targets, config)
        loss_after = total_loss(forward(model, features), labels, targets, config)
        assert loss_after < loss_before

    def test_step_gradients_match_finite_differences(self):
        for case in range(8):
            strategy = mk.STRATEGIES[case % len(mk.STRATEGIES)]
            model, features, labels, targets = self._setup(
                strategy=strategy, n=4, d=3, c=3, hidden=4, seed=case)
            config = DistillConfig(strategy=strategy, alpha=0.6, tau=2.0)
            analytic = step_gradients(model, features, labels, targets, config)
            for name, attr in (("w1", "w1"), ("b1", "b1"), ("w2", "w2"), ("b2", "b2")):
                def scalar(flat, attr=attr):
                    probe = model.copy()
                    setattr(probe, attr, flat.reshape(getattr(model, attr).shape))
                    return total_loss(forward(probe, features), labels, targets, config)

                numeric = fd_gradient(scalar, getattr(model, attr).ravel())
                idx = ("w1", "b1", "w2", "b2").index(name)
                assert rel_err(analytic[idx].ravel(), numeric) <= 1e-4, name

    def test_nonfinite_loss_aborts(self):
        model, features, labels, targets = self._setup()
        model.w1[:] = 1e308
        model.w2[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                self.one_step(model, features, labels, targets, DistillConfig(strategy=mk.PKD))


class TestTrainAndEvaluate:
    def _data(self, n=60, d=6, c=3, seed=2):
        rng = np.random.default_rng(seed)
        centers = rng.random((c, d))
        labels = rng.integers(c, size=n)
        features = np.clip(centers[labels] + 0.1 * rng.normal(size=(n, d)), 0.0, 1.0)
        return features, labels

    def test_zero_epochs_returns_unchanged(self):
        features, labels = self._data()
        model = init_student(6, 4, 3, SplitMix64(1))
        before = model.copy()
        train(model, features, labels, TargetSet(mk.NONE), DistillConfig(strategy=mk.NONE, epochs=0))
        assert np.array_equal(model.w1, before.w1)

    def test_same_seed_bit_identical(self):
        features, labels = self._data()
        config = DistillConfig(strategy=mk.NONE, epochs=5, seed=77, lr=0.1, batch_size=8)
        runs = []
        for _ in range(2):
            model = init_student(6, 4, 3, SplitMix64(9))
            train(model, features, labels, TargetSet(mk.NONE), config)
            runs.append(model)
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(runs[0], attr), getattr(runs[1], attr))

    def test_step_count(self):
        features, labels = self._data(n=25)
        config = DistillConfig(strategy=mk.NONE, epochs=3, batch_size=10, lr=1e-9)
        model = init_student(6, 4, 3, SplitMix64(5))
        counted = []
        import multikd.trainer as trainer_mod

        original = trainer_mod._step

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        trainer_mod._step = counting
        try:
            train(model, features, labels, TargetSet(mk.NONE), config)
        finally:
            trainer_mod._step = original
        assert len(counted) == 3 * math.ceil(25 / 10)

    def test_none_fits_train_ce_at_least_as_well_as_pkd(self):
        # the KD term trades off pure label fit, so the baseline's final
        # training cross-entropy should not exceed the distilled run's
        rng = np.random.default_rng(12)
        features, labels = self._data(n=120, d=6, c=4, seed=12)
        bank = TeacherBank([rng.normal(size=(120, 4)) * 2.0, rng.normal(size=(120, 4)) * 2.0],
                           ["a", "b"])
        config_none = DistillConfig(strategy=mk.NONE, epochs=30, lr=0.1, seed=3)
        config_pkd = DistillConfig(strategy=mk.PKD, epochs=30, lr=0.1, seed=3, tau=3.0)
        targets_pkd = build_targets(bank, labels, config_pkd)
        model_a = init_student(6, 8, 4, SplitMix64(21))
        model_b = init_student(6, 8, 4, SplitMix64(21))
        train(model_a, features, labels, TargetSet(mk.NONE), config_none)
        train(model_b, features, labels, targets_pkd, config_pkd)
        ce_none = ce_loss(soften(forward(model_a, features), 1.0), labels)
        ce_pkd = ce_loss(soften(forward(model_b, features), 1.0), labels)
        assert ce_none <= ce_pkd

    def test_evaluate_constant_model_on_balanced_set(self):
        c = 4
        model = StudentModel(np.zeros((2, 3)), np.zeros(2), np.zeros((c, 2)), np.zeros(c))
        model.b2[0] = 5.0  # always predicts class 0
        features = np.zeros((4 * 25, 3))
        labels = np.repeat(np.arange(c), 25)
        assert evaluate(model, features, labels) == pytest.approx(1.0 / c)

    def test_evaluate_self_labels_perfect(self):
        features, _ = self._data(n=40)
        model = init_student(6, 4, 3, SplitMix64(3))
        preds = np.argmax(forward(model, features), axis=1)
        assert evaluate(model, features, preds) == 1.0

    def test_evaluate_matches_recount_oracle(self):
        features, labels = self._data(n=80)
        model = init_student(6, 4, 3, SplitMix64(8))
        acc = evaluate(model, features, labels)
        hits = 0
        for i in range(80):
            logits = forward(model, features[i : i + 1])[0]
            best = 0
            for c in range(1, 3):
                if logits[c] > logits[best]:
                    best = c
            hits += int(best == labels[i])
        assert acc == pytest.approx(hits / 80.0)

    def test_evaluate_empty_rejected(self):
        model = init_student(3, 2, 2, SplitMix64(0))
        with pytest.raises(ValidationError):
            evaluate(model, np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValidationError, match=r"^features must be a B x D matrix, got shape \(3,\)$"):
            evaluate(model, np.zeros(3), np.zeros(3, dtype=int))


class TestK1Collapse:
    def test_total_loss_collapse(self):
        for case in range(20):
            rng = np.random.default_rng(3000 + case)
            n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            bank = TeacherBank([rng.normal(size=(n, c)) * 3.0], ["only"])
            labels = rng.integers(c, size=n)
            logits = rng.normal(size=(n, c))
            ref_cfg = DistillConfig(strategy=mk.KD_SINGLE, tau=2.0, alpha=0.4)
            ref = total_loss(logits, labels, build_targets(bank, labels, ref_cfg), ref_cfg)
            for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
                config = DistillConfig(strategy=tag, tau=2.0, alpha=0.4)
                val = total_loss(logits, labels, build_targets(bank, labels, config), config)
                assert val == pytest.approx(ref, rel=1e-12)
