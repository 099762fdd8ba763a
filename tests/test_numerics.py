"""Kernel-level checks for softmax, divergences, entropy, and argmax.

Derived expectations are frozen from a 50-digit decimal oracle that
re-evaluates the same float64 inputs term by term; the oracle lives in
_oracles.py and is asserted against its frozen value before the
implementation is. Softmax and cross-entropy are checked on the row
kernels that assembly runs, softmax also bit for bit against the
row-major row_major_softmax of _oracles.py on both sides of the
column-major row max's crossover; KL on the reference kl_rows, which the
training step's loss is tested against; entropy on the reference
entropy_rows, which the AVG1 loss identity is tested with; argmax on
evaluate, through a student whose logits are its inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multikd import StudentModel, evaluate
from multikd.numerics import EPS, cross_entropy_rows, softmax_rows

from _oracles import dec_cross_entropy, dec_kl, dec_softmax, entropy_rows, kl_rows, row_major_softmax

RNG = np.random.default_rng(20260808)


def random_prob_row(c):
    row = RNG.random(c) + 1e-3
    return row / row.sum()


def kl_divergence(q, p):
    return float(kl_rows(np.asarray(q), np.asarray(p)))


def cross_entropy(target, pred):
    return float(cross_entropy_rows(np.asarray(target), np.asarray(pred)))


def entropy(p):
    return float(entropy_rows(np.asarray(p)))


def top1(row):
    """The class evaluate predicts for a row >= 0, from a student whose logits are its inputs."""
    row = np.asarray(row, dtype=np.float64)
    c = row.size
    identity = StudentModel(np.eye(c), np.zeros(c), np.eye(c), np.zeros(c))
    hits = [evaluate(identity, row[None, :], [label]) for label in range(c)]
    return hits.index(1.0)


class TestSoftmax:
    def test_symmetry_uniform(self):
        assert np.allclose(softmax_rows(np.array([0.0, 0.0, 0.0])), [1 / 3] * 3, atol=1e-15)

    def test_analytic_two_class(self):
        out = softmax_rows(np.array([math.log(2.0), 0.0]))
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_temperature_halving_matches_decimal_oracle(self):
        # softmax([2,1], tau=2) == softmax([1,0.5], tau=1); frozen from the oracle
        frozen = (0.6224593312018546, 0.3775406687981454)
        assert dec_softmax([2.0, 1.0], 2.0) == pytest.approx(frozen, abs=1e-16)
        out = softmax_rows(np.array([2.0, 1.0]) / 2.0)
        assert out == pytest.approx(frozen, abs=1e-14)
        assert np.allclose(out, softmax_rows(np.array([1.0, 0.5])), atol=1e-15)

    def test_rows_sum_to_one(self):
        logits = RNG.normal(size=(50, 7)) * 30.0
        out = softmax_rows(logits / 3.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_shift_invariance(self):
        for _ in range(200):
            row = RNG.normal(size=9) * 5.0
            shift = RNG.normal() * 100.0
            a = softmax_rows(row / 2.5)
            b = softmax_rows((row + shift) / 2.5)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_high_temperature_limit(self):
        for _ in range(50):
            row = RNG.uniform(-10.0, 10.0, size=6)
            out = softmax_rows(row / 1e6)
            assert np.max(np.abs(out - 1.0 / 6.0)) < 1e-3

    def test_large_logits_stable(self):
        out = softmax_rows(np.array([1e8, 1e8 - 1.0]))
        assert np.isfinite(out).all()

    # A matrix of at least 16 rows per column takes its row max from a
    # column-major copy; a step batch (4 x 11), a 1-D row and a wide
    # matrix do not. Rounded logits tie rows' maxima and give signed
    # zeros, the values on which the order of a max could show.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.tuples(st.integers(1, 40)),
                     st.tuples(st.integers(1, 400), st.integers(1, 40))),
           st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3), st.booleans())
    @example((4, 11), 0, 3.0, False)
    @example((175, 11), 1, 3.0, True)
    @example((176, 11), 2, 3.0, True)
    @example((1000, 11), 3, 30.0, False)
    @example((11,), 4, 3.0, True)
    def test_equals_the_row_major_softmax_bit_for_bit(self, shape, seed, scale, rounded):
        scaled = np.random.default_rng(seed).normal(size=shape) * scale
        if rounded:
            scaled = np.round(scaled)
        assert softmax_rows(scaled).tobytes() == row_major_softmax(scaled).tobytes()

    # The training step softens the logits at [1.0, tau] in one call on an
    # S x B x C stack. Each slice must keep the bits of its own 2-D call,
    # also where that call takes the column-major row max (B >= 16 x C)
    # and where the slice is the logits divided by exactly 1.0.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 400), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.floats(0.25, 12.0), st.booleans())
    @example(2, 4, 11, 0, 3.0, False)
    @example(2, 176, 11, 1, 3.0, True)
    @example(2, 1000, 11, 2, 1.0, False)
    @example(3, 32, 2, 3, 0.25, True)
    def test_a_stack_softens_each_slice_as_its_own_call(self, s, b, c, seed, tau, rounded):
        logits = np.random.default_rng(seed).normal(size=(b, c)) * 5.0
        if rounded:
            logits = np.round(logits)
        scales = np.array([1.0, tau, 1.0 / tau][:s]).reshape(s, 1, 1)
        stacked = softmax_rows(logits / scales)
        assert stacked.shape == (s, b, c)
        for i in range(s):
            assert stacked[i].tobytes() == softmax_rows(logits / scales[i, 0, 0]).tobytes(), i
        assert stacked[0].tobytes() == softmax_rows(logits).tobytes()


class TestKl:
    def test_identity_zero(self):
        row = random_prob_row(6)
        assert kl_divergence(row, row) == pytest.approx(0.0, abs=1e-15)

    def test_onehot_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_three_term_oracle(self):
        frozen = 0.08512282595722159
        assert dec_kl([0.7, 0.2, 0.1], [0.5, 0.3, 0.2]) == pytest.approx(frozen, abs=1e-16)
        assert kl_divergence([0.7, 0.2, 0.1], [0.5, 0.3, 0.2]) == pytest.approx(frozen, rel=1e-13)

    def test_nonnegative_and_zero_iff_equal(self):
        for _ in range(300):
            q = random_prob_row(5)
            p = random_prob_row(5)
            val = kl_divergence(q, p)
            assert val >= -1e-12
            if np.max(np.abs(q - p)) > 1e-9:
                assert val > 0.0


class TestCrossEntropy:
    def test_uniform_self(self):
        row = [0.25] * 4
        assert cross_entropy(row, row) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_onehot_reduction(self):
        pred = random_prob_row(7)
        for c in range(7):
            onehot = np.zeros(7)
            onehot[c] = 1.0
            assert cross_entropy(onehot, pred) == pytest.approx(-math.log(pred[c]), rel=1e-12)

    def test_three_term_oracle(self):
        frozen = 0.4310877054821933
        assert dec_cross_entropy([0.9, 0.05, 0.05], [0.8, 0.1, 0.1]) == pytest.approx(frozen, abs=1e-16)
        assert cross_entropy([0.9, 0.05, 0.05], [0.8, 0.1, 0.1]) == pytest.approx(frozen, rel=1e-13)

    def test_decomposition_ce_equals_kl_plus_entropy(self):
        for _ in range(300):
            target = random_prob_row(6)
            pred = random_prob_row(6)
            lhs = cross_entropy(target, pred)
            rhs = kl_divergence(target, pred) + entropy(target)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_pred_floored(self):
        val = cross_entropy([0.5, 0.5], [1.0, 0.0])
        assert val == pytest.approx(0.5 * -math.log(EPS), rel=1e-12)


class TestEntropy:
    def test_onehot_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_log_c(self):
        assert entropy([0.2] * 5) == pytest.approx(math.log(5.0), abs=1e-14)

    def test_dyadic(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2.0), abs=1e-14)


class TestTop1:
    def test_basic(self):
        assert top1([0.1, 0.7, 0.2]) == 1

    def test_tie_breaks_low(self):
        assert top1([0.5, 0.5]) == 0

    def test_permutation_equivariance(self):
        row = RNG.random(8)
        row[RNG.integers(8)] += 1.0  # unique maximum so the permuted argmax is well defined
        winner = top1(row / row.sum())
        for _ in range(20):
            perm = RNG.permutation(8)
            assert top1(row[perm] / row.sum()) == int(np.where(perm == winner)[0][0])

    def test_invariant_under_softmax(self):
        for _ in range(100):
            row = RNG.normal(size=10) * 4.0
            for tau in (0.5, 1.0, 7.0):
                assert top1(softmax_rows(row / tau)) == int(np.argmax(row))
