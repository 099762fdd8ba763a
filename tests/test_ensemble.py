"""Reference distributions, teacher weighting, and target assembly.

References and similarities are checked on the row kernels that
build_targets runs for GTD and PKD: _reference_rows and _inverse_ce.
Raw teacher scores come from its scorer _teacher_scores, normalized
weights from build_targets(...).weights. The inverse-KL similarity is
the reference 1 / max(kl_rows, 1e-12) of _oracles.py, which equals
_inverse_ce bit for bit on one-hot references.
"""

import math
import tracemalloc

import numpy as np
import pytest

import multikd as mk
from multikd import DistillConfig, TeacherBank, build_targets
from multikd.ensemble import _inverse_ce, _reference_rows, _teacher_scores
from multikd.errors import NumericalError, ValidationError
from multikd.numerics import EPS

from _oracles import (
    dec_cross_entropy,
    dec_kl,
    kl_rows,
    reference_build_targets,
    soften,
    validate_prob_row,
)

RNG = np.random.default_rng(31337)


def random_bank(n=6, c=5, k=3, scale=3.0):
    mats = [RNG.normal(size=(n, c)) * scale for _ in range(k)]
    return TeacherBank(mats, [f"t{i}" for i in range(k)])


def gtd_row(label, n_classes):
    return _reference_rows(np.array([label]), n_classes, 1.0)[0]


def pkd_row(label, n_classes, h):
    return _reference_rows(np.array([label]), n_classes, h)[0]


def weights_of(bank, labels, strategy, **knobs):
    return build_targets(bank, labels, DistillConfig(strategy=strategy, **knobs)).weights


def similarity_kl(reference, teacher_dist):
    return 1.0 / max(float(kl_rows(np.asarray(reference), np.asarray(teacher_dist))), EPS)


def similarity_ce(reference, teacher_dist):
    return float(_inverse_ce(np.asarray(reference), np.asarray(teacher_dist)))


class TestTeacherBank:
    """The bank's refusals: the only check on teacher logits before they are softened."""

    def test_rejects_no_teachers(self):
        with pytest.raises(ValidationError) as info:
            TeacherBank([], [])
        assert str(info.value) == "a teacher bank needs at least one teacher"

    def test_rejects_ids_and_teachers_of_different_lengths(self):
        with pytest.raises(ValidationError) as info:
            TeacherBank([np.zeros((2, 3))], ["a", "b"])
        assert str(info.value) == "teacher_ids must match teachers in length"

    @pytest.mark.parametrize("logits", [np.zeros(3), np.zeros((2, 3, 1)), np.zeros((0, 3)), np.zeros((2, 0))])
    def test_rejects_a_matrix_not_2d_or_empty(self, logits):
        with pytest.raises(ValidationError) as info:
            TeacherBank([np.zeros((2, 3)), logits], ["a", "b"])
        assert str(info.value) == "teacher 'b': logits must be a non-empty N x C matrix"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, bad):
        logits = np.zeros((2, 3))
        logits[1, 2] = bad
        with pytest.raises(ValidationError) as info:
            TeacherBank([logits], ["a"])
        assert str(info.value) == "teacher 'a': logits must be finite"

    def test_rejects_shapes_that_disagree(self):
        with pytest.raises(ValidationError) as info:
            TeacherBank([np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2))], ["a", "b", "c"])
        assert str(info.value) == "teacher 'c': shape (3, 2) disagrees with (2, 3)"

    def test_rejects_a_repeated_teacher_id(self):
        with pytest.raises(ValidationError) as info:
            TeacherBank([np.zeros((2, 3))] * 3, ["a", "b", "a"])
        assert str(info.value) == "teacher id 'a' is given twice"


class TestReferences:
    def test_gtd_onehot(self):
        assert np.array_equal(gtd_row(2, 4), [0.0, 0.0, 1.0, 0.0])

    def test_gtd_single_class(self):
        assert np.array_equal(gtd_row(0, 1), [1.0])

    def test_gtd_equals_pkd_at_h_one(self):
        # h = 1 writes no off-class spread: the row is the one-hot row, bit for bit
        for c in (1, 2, 5, 11):
            for label in (0, c - 1):
                assert gtd_row(label, c).tobytes() == np.eye(c)[label].tobytes()

    def test_gtd_label_out_of_range(self):
        bank = random_bank(n=1, c=4, k=2)
        with pytest.raises(ValidationError):
            build_targets(bank, [4], DistillConfig(strategy=mk.GTD))

    def test_pkd_values(self):
        row = pkd_row(3, 11, 0.99)
        assert row[3] == 0.99
        off = np.delete(row, 3)
        assert np.allclose(off, 0.001, atol=1e-15)

    def test_pkd_sums_to_one(self):
        for c in (2, 7, 30):
            for h in (1.0 / c + 1e-6, 0.5 + 0.5 / c, 0.99, 1.0):
                row = pkd_row(1, c, h)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pkd_rejects_h_at_or_below_uniform(self):
        bank = random_bank(n=2, c=3, k=2)
        for h in (1.0 / 3.0, 0.2):
            with pytest.raises(ValidationError, match=rf"^h must be in \(1/3, 1\], got {h}$"):
                weights_of(bank, [0, 1], mk.PKD, h=h)

    def test_pkd_rejects_single_class(self):
        # off-class mass is undefined at C=1, whatever h is; GTD ignores h
        bank = random_bank(n=2, c=1, k=2)
        for h in (0.9, 1.0):
            with pytest.raises(ValidationError, match="^preferred distribution needs at least 2 classes$"):
                weights_of(bank, [0, 0], mk.PKD, h=h)
            assert np.array_equal(weights_of(bank, [0, 0], mk.GTD, h=h), np.full((2, 2), 0.5))


class TestSimilarities:
    def test_kl_onehot_vs_uniform(self):
        val = similarity_kl([1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_kl_saturates_on_identical_rows(self):
        row = [0.25, 0.25, 0.5]
        assert similarity_kl(row, row) == pytest.approx(1e12)

    def test_kl_derived_oracle(self):
        ref = pkd_row(0, 3, 0.9)
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
        ref = pkd_row(0, 3, 0.9)
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


class TestTeacherWeights:
    """Raw scores from the scorer; normalized weights as build_targets keeps them."""

    def test_identical_teachers_uniform_weights(self):
        n, c, k = 5, 4, 3
        base = RNG.normal(size=(n, c))
        bank = TeacherBank([base.copy() for _ in range(k)], [f"t{i}" for i in range(k)])
        labels = RNG.integers(c, size=n)
        for strategy in (mk.GTD, mk.PKD):
            w = weights_of(bank, labels, strategy, h=0.9)
            assert np.allclose(w, 1.0 / k, atol=1e-12)

    def test_single_teacher_weight_one(self):
        bank = random_bank(k=1)
        labels = RNG.integers(bank.c, size=bank.n)
        w = weights_of(bank, labels, mk.GTD)
        assert np.array_equal(w, np.ones((bank.n, 1)))

    def test_two_teacher_oracle(self):
        # teacher 1 fixed distribution [0.8,0.1,0.1], teacher 2 uniform; PKD(h=0.9)
        logit1 = np.log(np.array([[0.8, 0.1, 0.1]]))
        logit2 = np.zeros((1, 3))
        bank = TeacherBank([logit1, logit2], ["a", "b"])
        raw = _teacher_scores(bank, [0], 0.9, 1.0)
        w = weights_of(bank, [0], mk.PKD, h=0.9, weight_tau=1.0)
        s1 = 2.3197135693801558  # frozen: 1/CE(pkd ref, [0.8,0.1,0.1])
        s2 = 1.0 / math.log(3.0)
        assert raw[0, 0] == pytest.approx(s1, rel=1e-12)
        assert raw[0, 1] == pytest.approx(s2, rel=1e-12)
        assert w[0, 0] == pytest.approx(s1 / (s1 + s2), rel=1e-12)
        assert w[0, 1] == pytest.approx(s2 / (s1 + s2), rel=1e-12)

    def test_simplex_invariant(self):
        for _ in range(50):
            bank = random_bank(
                n=int(RNG.integers(1, 7)), c=int(RNG.integers(2, 9)), k=int(RNG.integers(1, 6))
            )
            labels = RNG.integers(bank.c, size=bank.n)
            strategy = mk.PKD if RNG.random() < 0.5 else mk.GTD
            w = weights_of(bank, labels, strategy, h=0.95)
            sums = w.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert ((w > 0.0) & (w <= 1.0)).all()

    def test_monotonicity_lower_ce_higher_weight(self):
        bank = random_bank(n=40, c=6, k=4)
        labels = RNG.integers(bank.c, size=bank.n)
        w = weights_of(bank, labels, mk.PKD, h=0.9)
        refs = np.array([pkd_row(y, bank.c, 0.9) for y in labels])
        ces = np.stack(
            [-(refs * np.log(soften(t, 1.0))).sum(axis=1) for t in bank.teachers], axis=1
        )
        for n in range(bank.n):
            order_ce = np.argsort(ces[n])
            order_w = np.argsort(-w[n])
            assert np.array_equal(order_ce, order_w)

    def test_pkd_converges_to_gtd_as_h_to_one(self):
        bank = random_bank(n=30, c=8, k=3)
        labels = RNG.integers(bank.c, size=bank.n)
        gtd = weights_of(bank, labels, mk.GTD)
        pkd = weights_of(bank, labels, mk.PKD, h=1.0 - 1e-9)
        assert np.max(np.abs(gtd - pkd)) < 1e-6

    def test_misaligned_labels_rejected(self):
        bank = random_bank(n=4)
        with pytest.raises(ValidationError):
            build_targets(bank, [0, 1], DistillConfig(strategy=mk.GTD))


class TestWeightedMix:
    """The GTD/PKD target: the weighted sum of the teachers softened at tau."""

    def test_identical_rows_fixed_point(self):
        n, c = 4, 5
        base = RNG.normal(size=(n, c))
        bank = TeacherBank([base.copy(), base.copy()], ["a", "b"])
        labels = RNG.integers(c, size=n)
        for strategy in (mk.GTD, mk.PKD):
            config = DistillConfig(strategy=strategy, tau=2.0)
            out = build_targets(bank, labels, config).targets[0]
            assert np.allclose(out, soften(base, 2.0), atol=1e-12)

    def test_degenerate_weights_pick_one_teacher(self):
        # teacher 1 puts all its mass on the label, so its floored CE scores 1e12
        labels = np.array([0, 3, 1])
        sure = np.zeros((3, 4))
        sure[np.arange(3), labels] = 60.0
        others = [RNG.normal(size=(3, 4)) * 3.0 for _ in range(2)]
        bank = TeacherBank([others[0], sure, others[1]], ["a", "b", "c"])
        out = build_targets(bank, labels, DistillConfig(strategy=mk.GTD, tau=1.5)).targets[0]
        assert np.max(np.abs(out - soften(sure, 1.5))) < 1e-6

    def test_midpoint(self):
        # both teachers give the label 0.6 and mirror the rest: equal scores, half weight each
        q1 = np.log(np.array([[0.6, 0.3, 0.1]]))
        q2 = np.log(np.array([[0.6, 0.1, 0.3]]))
        bank = TeacherBank([q1, q2], ["a", "b"])
        for strategy in (mk.GTD, mk.PKD):
            out = build_targets(bank, [0], DistillConfig(strategy=strategy, tau=1.0, h=0.9))
            assert np.allclose(out.weights, [[0.5, 0.5]], atol=1e-12)
            assert np.allclose(out.targets[0], [[0.6, 0.2, 0.2]], atol=1e-12)

    def test_rows_are_distributions(self):
        bank = random_bank(n=50, c=7, k=4, scale=8.0)
        labels = RNG.integers(bank.c, size=bank.n)
        config = DistillConfig(strategy=mk.PKD, h=0.99, tau=4.0)
        validate_prob_row(build_targets(bank, labels, config).targets[0])


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
        ref = soften(base, 4.0)
        for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
            for mat in build_targets(bank, labels, mk.DistillConfig(strategy=tag)).targets:
                assert np.max(np.abs(mat - ref)) < 1e-12

    def test_avg2_is_elementwise_mean(self):
        bank = random_bank(k=3)
        labels = RNG.integers(bank.c, size=bank.n)
        config = mk.DistillConfig(strategy=mk.AVG2, tau=2.5)
        out = build_targets(bank, labels, config).targets[0]
        mean = sum(soften(t, 2.5) for t in bank.teachers) / 3.0
        assert np.max(np.abs(out - mean)) < 1e-12

    def test_avg1_targets_do_not_grow_with_teachers(self):
        def avg1_nbytes(k):
            bank = random_bank(k=k)
            labels = RNG.integers(bank.c, size=bank.n)
            out = build_targets(bank, labels, mk.DistillConfig(strategy=mk.AVG1))
            return sum(t.nbytes for t in out.targets)

        assert avg1_nbytes(2) == avg1_nbytes(50)

    def test_kd_single_rejects_multiple_teachers(self):
        bank = random_bank(k=2)
        labels = RNG.integers(bank.c, size=bank.n)
        with pytest.raises(ValidationError):
            build_targets(bank, labels, mk.DistillConfig(strategy=mk.KD_SINGLE))

    def test_none_has_no_targets_to_build(self):
        bank = random_bank()
        labels = RNG.integers(bank.c, size=bank.n)
        with pytest.raises(ValidationError, match="build_targets cannot handle strategy 'NONE'"):
            build_targets(bank, labels, mk.DistillConfig(strategy=mk.NONE))

    def test_pkd_weights_attached(self):
        bank = random_bank(k=2)
        labels = RNG.integers(bank.c, size=bank.n)
        out = build_targets(bank, labels, mk.DistillConfig(strategy=mk.PKD))
        assert out.weights is not None
        assert out.weights.shape == (bank.n, 2)

    def test_gtd_is_pkd_at_h_one_bit_for_bit(self):
        for _ in range(50):
            bank = random_bank(
                n=int(RNG.integers(1, 9)), c=int(RNG.integers(2, 12)), k=int(RNG.integers(1, 6)),
                scale=float(RNG.uniform(0.1, 20.0)),
            )
            labels = RNG.integers(bank.c, size=bank.n)
            knobs = dict(tau=float(RNG.uniform(0.5, 8.0)), weight_tau=float(RNG.uniform(0.5, 4.0)))
            gtd = build_targets(bank, labels, DistillConfig(strategy=mk.GTD, h=0.7, **knobs))
            pkd = build_targets(bank, labels, DistillConfig(strategy=mk.PKD, h=1.0, **knobs))
            assert gtd.targets[0].tobytes() == pkd.targets[0].tobytes()
            assert gtd.weights.tobytes() == pkd.weights.tobytes()


PEAK_N, PEAK_C, PEAK_K = 1000, 11, 1000


@pytest.fixture(scope="module")
def many_teachers():
    """PEAK_K teachers' N x C logits, listed in ascending id order, and their labels."""
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(PEAK_N, PEAK_C)) for _ in range(PEAK_K)]
    return mats, [f"t{k:04d}" for k in range(PEAK_K)], rng.integers(PEAK_C, size=PEAK_N)


# Besides the bank's logits, the N x K weights are the only assembly
# memory that grows with K. The scores become the weights in place, so a
# bank listed in id order holds one N x K array (bound 1.25); out of id
# order, a gathered copy of the scores is live while they are summed
# (bound 2.25).
@pytest.mark.parametrize("strategy", [mk.GTD, mk.PKD])
@pytest.mark.parametrize("in_id_order, arrays", [(True, 1.25), (False, 2.25)])
def test_gtd_pkd_assembly_peaks_near_one_n_by_k_weight_array(many_teachers, strategy, in_id_order, arrays):
    mats, ids, labels = many_teachers
    bank = TeacherBank(mats, ids if in_id_order else ids[::-1])
    tracemalloc.start()
    try:
        build_targets(bank, labels, DistillConfig(strategy=strategy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * PEAK_N * PEAK_K * 8


# 1000 x 11 teachers take softmax_rows' column-major row max, and
# GTD/PKD scale each softened teacher in place: neither may move a bit
# from the row-major loop with a product temporary.
@pytest.mark.parametrize("in_id_order", [True, False], ids=["id-order", "reversed"])
@pytest.mark.parametrize("strategy, k", [
    (mk.KD_SINGLE, 1),
    *[(strategy, k) for strategy in [mk.AVG1, mk.AVG2, mk.GTD, mk.PKD] for k in (1, 2, 200)],
])
def test_assembly_has_the_bits_of_the_reference_loop(many_teachers, strategy, k, in_id_order):
    mats, ids, labels = many_teachers
    bank = TeacherBank(mats[:k], ids[:k] if in_id_order else ids[:k][::-1])
    config = DistillConfig(strategy=strategy)
    got = build_targets(bank, labels, config)
    target, weights = reference_build_targets(bank, labels, config)
    assert got.targets[0].tobytes() == target.tobytes()
    assert (got.weights is None) == (weights is None)
    if weights is not None:
        assert got.weights.tobytes() == weights.tobytes()


# Each softened teacher is added to one N x C accumulator and dropped
# before the next is softened, so an unweighted build peaks at the
# accumulator plus one softmax's temporaries, whatever K is.
@pytest.mark.parametrize("strategy, k", [
    (mk.KD_SINGLE, 1), (mk.AVG1, 2), (mk.AVG2, 2), (mk.AVG1, 200), (mk.AVG2, 200),
])
def test_unweighted_assembly_peak_does_not_grow_with_k(many_teachers, strategy, k):
    mats, ids, labels = many_teachers
    bank = TeacherBank(mats[:k], ids[:k])
    tracemalloc.start()
    try:
        build_targets(bank, labels, DistillConfig(strategy=strategy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.25 * PEAK_N * PEAK_C * 8


# GTD and PKD also soften the teachers at weight_tau, to score them
@pytest.mark.parametrize("strategy, knob", [
    *[(strategy, "tau") for strategy in [mk.KD_SINGLE, mk.AVG1, mk.AVG2, mk.GTD, mk.PKD]],
    *[(strategy, "weight_tau") for strategy in [mk.GTD, mk.PKD]],
])
def test_a_temperature_that_overflows_finite_logits_is_a_numerical_error(strategy, knob):
    # 1e-310 is positive and finite, but logits / 1e-310 overflow to +-inf
    bank = random_bank(k=1 if strategy == mk.KD_SINGLE else 3)
    labels = RNG.integers(bank.c, size=bank.n)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match=f"non-finite {strategy} targets"):
        build_targets(bank, labels, DistillConfig(strategy=strategy, **{knob: 1e-310}))
