"""The fused student step against the step-by-step reference loop.

train() runs one kernel per batch on rows gathered once per epoch. Its
final parameters must equal, bit for bit, those of the plain loop built
from loss_gradient (tests/_oracles.py), for every strategy and for
batches that do not divide N; train returns None. AVG1 steps must cost the
same at any number of teachers. A StudentModel is one float64 buffer
whose fields are views: the steps update the caller's own arrays, also
when a step fails, and whatever dtype the model was built from, it
trains as its float64 twin.
"""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import multikd as mk
from multikd import (
    DistillConfig,
    StudentModel,
    TargetSet,
    init_student,
    train,
)
from multikd.ensemble import TeacherBank, build_targets
from multikd.errors import NumericalError, ValidationError
from multikd.rng import SplitMix64

import _oracles
from _oracles import batch_targets, reference_init_student, reference_step, reference_train, step_gradients

PARAMETERS = ("w1", "b1", "w2", "b2")


def make_fit(strategy, n, d, c, hidden, k, tau, alpha, batch_size, epochs, seed):
    rng = np.random.default_rng(seed)
    features = rng.random((n, d))
    labels = rng.integers(c, size=n)
    config = DistillConfig(strategy=strategy, tau=tau, alpha=alpha, lr=0.2,
                           batch_size=batch_size, epochs=epochs, seed=seed)
    if strategy == mk.NONE:
        targets = TargetSet(mk.NONE)
    else:
        bank = TeacherBank([rng.normal(size=(n, c)) * 3.0 for _ in range(k)],
                           [f"t{j}" for j in range(k)])
        targets = build_targets(bank, labels, config)
    model = init_student(d, hidden, c, SplitMix64(seed))
    return model, features, labels, targets, config


@st.composite
def fits(draw):
    strategy = draw(st.sampled_from(mk.STRATEGIES))
    return make_fit(
        strategy,
        n=draw(st.integers(1, 30)),
        d=draw(st.integers(1, 6)),
        c=draw(st.integers(2, 6)),
        hidden=draw(st.integers(1, 6)),
        k=1 if strategy == mk.KD_SINGLE else draw(st.integers(1, 5)),
        tau=draw(st.floats(0.25, 12.0)),
        alpha=draw(st.floats(0.0, 1.0)),
        batch_size=draw(st.integers(1, 8)),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(fits())
# train walks each epoch as views of whole batches plus one ragged tail:
# here all tail (n < batch size), no tail (batch size divides n) and
# batches of one row
@example(make_fit(mk.PKD, n=3, d=4, c=5, hidden=3, k=3, tau=2.5, alpha=0.3,
                  batch_size=8, epochs=2, seed=21))
@example(make_fit(mk.GTD, n=24, d=3, c=4, hidden=5, k=2, tau=4.0, alpha=0.6,
                  batch_size=6, epochs=2, seed=22))
@example(make_fit(mk.NONE, n=7, d=2, c=3, hidden=4, k=1, tau=1.0, alpha=0.5,
                  batch_size=1, epochs=3, seed=23))
@example(make_fit(mk.KD_SINGLE, n=7, d=2, c=3, hidden=4, k=1, tau=1.5, alpha=0.5,
                  batch_size=1, epochs=3, seed=24))
def test_train_matches_reference_loop_bit_for_bit(fit):
    model, features, labels, targets, config = fit
    expected = model.copy()
    reference_train(expected, features, labels, targets, config)
    assert train(model, features, labels, targets, config) is None
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(model, name), getattr(expected, name)), name


def test_uneven_last_batch_matches_reference():
    for strategy in mk.STRATEGIES:
        k = 1 if strategy == mk.KD_SINGLE else 3
        model, features, labels, targets, config = make_fit(
            strategy, n=23, d=5, c=4, hidden=6, k=k, tau=3.0, alpha=0.4,
            batch_size=4, epochs=2, seed=7)
        expected = model.copy()
        reference_train(expected, features, labels, targets, config)
        train(model, features, labels, targets, config)
        assert np.array_equal(model.w1, expected.w1) and np.array_equal(model.b2, expected.b2)


def calls_per_step(strategy, k, steps=8):
    """Python plus C calls per step: calls for 2m steps minus calls for m, over m."""
    model, features, labels, targets, config = make_fit(
        strategy, n=2 * steps * 4, d=5, c=4, hidden=6, k=k, tau=3.0, alpha=0.5,
        batch_size=4, epochs=1, seed=3)

    def count(n):
        part = batch_targets(targets, slice(0, n))
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        sys.setprofile(hook)
        try:
            train(model.copy(), features[:n], labels[:n], part, config)
        finally:
            sys.setprofile(None)
        return calls

    return (count(2 * steps * 4) - count(steps * 4)) / steps


def callees_per_step(strategy, k, steps=8):
    """The callees the profile hook sees in each step, in order, by name.

    A Python function is named by its code object, a builtin method by
    its owner and name: a ufunc method by the ufunc (logical_and.reduce),
    any other by its type (ndarray.dot). A ufunc call itself is no
    profile event, so np.isfinite, np.maximum and the operators are not
    listed.
    """
    model, features, labels, targets, config = make_fit(
        strategy, n=steps * 4, d=5, c=4, hidden=6, k=k, tau=3.0, alpha=0.5,
        batch_size=4, epochs=1, seed=3)
    step_code, seen, current = mk.trainer._step.__code__, [], None

    def hook(frame, event, arg):
        nonlocal current
        if event == "call" and frame.f_code is step_code:
            current = []
            seen.append(current)
        if current is None:
            return
        if event == "call":
            current.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            current.append(f"{owner.__name__}.{arg.__name__}" if isinstance(owner, np.ufunc)
                           else arg.__qualname__)
        elif event == "return" and frame.f_code is step_code:
            current = None

    sys.setprofile(hook)
    try:
        train(model, features, labels, targets, config)
    finally:
        sys.setprofile(None)
    return seen


# Every call a step makes, in order: the forward pass and its two
# products, the logits check, the softmax's row max and row sum, the
# gradient check, the three backward products and two bias sums, and
# the weight check. NONE and every distilling strategy make the same calls.
STEP_CALLEES = [
    "_step", "_forward_cached", "ndarray.dot", "ndarray.dot", "logical_and.reduce",
    "softmax_rows", "maximum.reduce", "add.reduce", "logical_and.reduce",
    "ndarray.dot", "add.reduce", "ndarray.dot", "ndarray.dot", "add.reduce",
    "logical_and.reduce",
]


def test_calls_per_step_stay_at_their_recorded_counts():
    # One flat update, one weight check and batched shuffle draws took
    # these from 31 (NONE) and 36 (PKD) to 14 and 19; one softmax over the
    # stacked [p1, p_tau] pair, a loss check by comparison and batches
    # walked as views took them to 11 and 13; a step that computes no
    # loss, to 10 and 10. The five matrix products then moved from the
    # matmul ufunc, whose dispatch the hook does not see, to ndarray.dot,
    # a method call it does see at half the dispatch cost: 15 and 15, a
    # faster step at a higher count. A step that gains calls fails here,
    # and so does one that adds, drops or swaps a call at the same count.
    for strategy, k in ((mk.NONE, 1), (mk.PKD, 2)):
        assert calls_per_step(strategy, k) == len(STEP_CALLEES) == 15
        assert callees_per_step(strategy, k) == [STEP_CALLEES] * 8, strategy


def test_avg1_step_cost_does_not_grow_with_teachers():
    at_2 = calls_per_step(mk.AVG1, 2)
    at_50 = calls_per_step(mk.AVG1, 50)
    assert at_2 == at_50
    assert at_2 == calls_per_step(mk.AVG2, 50)


# A train call holds its row columns, one shuffled copy of each and an
# epoch's permutation; it walks the batches as views of the copies, made
# one step at a time. Peaks measured on an x86-64 host, in KiB: a list
# of every batch's views would add about a third.
@pytest.mark.parametrize("strategy, kib", [(mk.NONE, 483), (mk.PKD, 655)])
def test_train_peak_holds_no_list_of_batches(strategy, kib):
    model, features, labels, targets, config = make_fit(
        strategy, n=2000, d=10, c=11, hidden=32, k=2, tau=3.0, alpha=0.5,
        batch_size=4, epochs=2, seed=1)
    tracemalloc.start()
    try:
        train(model, features, labels, targets, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.04 * kib * 1024


class TestNumericalChecks:
    def test_nonfinite_logits(self):
        model, features, labels, targets, config = make_fit(
            mk.PKD, n=8, d=3, c=3, hidden=4, k=2, tau=2.0, alpha=0.5,
            batch_size=4, epochs=1, seed=1)
        features[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite student logits"):
                train(model, features, labels, targets, config)

    def test_nonfinite_loss(self):
        # logits / tau overflow at a denormal temperature: the softened
        # rows, the loss the step no longer computes and the logit
        # gradient are all nan, and the gradient check refuses them
        model, features, labels, targets, config = make_fit(
            mk.KD_SINGLE, n=8, d=3, c=3, hidden=4, k=1, tau=2.0, alpha=0.5,
            batch_size=4, epochs=1, seed=1)
        before = model.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="^non-finite logit gradient; training aborted$"):
                train(model, features, labels, targets, config.with_(tau=1e-310))
        assert model.data.tobytes() == before.data.tobytes()

    def test_nonfinite_parameters(self):
        model, features, labels, targets, config = make_fit(
            mk.NONE, n=8, d=3, c=3, hidden=4, k=1, tau=2.0, alpha=0.5,
            batch_size=4, epochs=1, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite parameters after update"):
                train(model, features * 1e6, labels, targets, config.with_(lr=1e308))

    def test_nonfinite_w2_alone_is_caught(self):
        # zero features and a single relu unit at 1: the update moves w2[1]
        # from 1e308 past the largest double while w1 gets a zero gradient
        model = StudentModel(np.zeros((1, 2)), np.ones(1), np.array([[1e308], [1e308], [0.0]]),
                             np.zeros(3))
        config = DistillConfig(strategy=mk.NONE, lr=1.7e308, epochs=1, batch_size=1)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite parameters after update"):
                train(model, np.zeros((1, 2)), np.array([1]), TargetSet(mk.NONE), config)
        assert np.isfinite(model.w1).all() and not np.isfinite(model.w2).all()


class TestInPlace:
    def test_train_leaves_the_trained_values_in_the_callers_arrays(self):
        for strategy in mk.STRATEGIES:
            k = 1 if strategy == mk.KD_SINGLE else 3
            model, features, labels, targets, config = make_fit(
                strategy, n=23, d=5, c=4, hidden=6, k=k, tau=3.0, alpha=0.4,
                batch_size=4, epochs=2, seed=11)
            arrays = [getattr(model, name) for name in PARAMETERS]
            expected = model.copy()
            reference_train(expected, features, labels, targets, config)
            train(model, features, labels, targets, config)
            for name, array in zip(PARAMETERS, arrays):
                assert getattr(model, name) is array, name
                assert np.array_equal(array, getattr(expected, name)), name

    def test_nonfinite_parameters_leave_the_reference_state_of_the_failing_step(self):
        # at lr 1e156 the first update stays finite and the second overflows
        model, features, labels, targets, config = make_fit(
            mk.PKD, n=12, d=3, c=3, hidden=4, k=2, tau=2.0, alpha=0.5,
            batch_size=4, epochs=2, seed=2)
        config = config.with_(lr=1e156)
        arrays = [getattr(model, name) for name in PARAMETERS]
        expected = model.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(_oracles, "reference_step", wraps=reference_step) as steps:
                reference_train(expected, features, labels, targets, config, until_nonfinite=True)
            with pytest.raises(NumericalError, match="non-finite parameters after update"):
                train(model, features, labels, targets, config)
        assert steps.call_count == 2
        for name, array in zip(PARAMETERS, arrays):
            assert getattr(model, name) is array, name
            assert np.array_equal(array, getattr(expected, name), equal_nan=True), name

    def test_one_step_writes_the_reference_gradients_and_update(self):
        # one epoch of one full batch is one step, on the rows in the
        # epoch's shuffled order, as reference_train takes it
        for strategy in mk.STRATEGIES:
            k = 1 if strategy == mk.KD_SINGLE else 3
            model, features, labels, targets, config = make_fit(
                strategy, n=5, d=4, c=3, hidden=5, k=k, tau=2.0, alpha=0.3,
                batch_size=5, epochs=1, seed=4)
            want_grads = reference_step(model.copy(), features, labels, targets, config)
            got_grads = step_gradients(model, features, labels, targets, config)
            for got, want in zip(got_grads, want_grads):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), strategy
            expected = model.copy()
            with mock.patch.object(_oracles, "reference_step", wraps=reference_step) as steps:
                reference_train(expected, features, labels, targets, config)
            assert steps.call_count == 1
            arrays = [getattr(model, name) for name in PARAMETERS]
            train(model, features, labels, targets, config)
            for name, array in zip(PARAMETERS, arrays):
                assert getattr(model, name) is array, name
                assert np.array_equal(array, getattr(expected, name)), name


class TestOneBuffer:
    def fit(self, seed=5):
        return make_fit(mk.PKD, n=23, d=5, c=4, hidden=6, k=3, tau=3.0, alpha=0.4,
                        batch_size=4, epochs=2, seed=seed)

    def test_fields_are_views_of_data_in_w1_w2_b1_b2_order(self):
        model = self.fit()[0]
        parts = [getattr(model, name).ravel() for name in ("w1", "w2", "b1", "b2")]
        assert model.data.dtype == np.float64 and model.data.flags.c_contiguous
        assert model.data.tobytes() == np.concatenate(parts).tobytes()
        for name in PARAMETERS:
            assert np.shares_memory(getattr(model, name), model.data), name
        assert model.weights.tobytes() == np.concatenate(parts[:2]).tobytes()

    @pytest.mark.parametrize("name", PARAMETERS)
    def test_assigning_a_field_writes_into_data_and_train_trains_it(self, name):
        model, features, labels, targets, config = self.fit()
        view = getattr(model, name)
        value = np.random.default_rng(8).normal(size=view.shape)
        setattr(model, name, value)
        assert getattr(model, name) is view and np.array_equal(view, value)
        expected = model.copy()
        assert getattr(expected, name).tobytes() == value.tobytes()
        reference_train(expected, features, labels, targets, config)
        train(model, features, labels, targets, config)
        assert model.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("name", PARAMETERS)
    def test_a_wrong_shaped_assignment_is_refused(self, name):
        model = self.fit()[0]
        before = model.data.copy()
        shape = getattr(model, name).shape
        with pytest.raises(ValidationError, match=f"{name} must have shape"):
            setattr(model, name, np.zeros(shape + (1,)))
        with pytest.raises(ValidationError, match=f"{name} must have shape"):
            setattr(model, name, np.zeros(shape[0] + 1))
        assert model.data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_a_model_of_any_dtype_trains_as_its_float64_twin(self, dtype):
        model, features, labels, targets, config = self.fit()
        arrays = {name: (getattr(model, name) * 4.0).astype(dtype) for name in PARAMETERS}
        narrow = StudentModel(**arrays)
        twin = StudentModel(**{name: array.astype(np.float64) for name, array in arrays.items()})
        train(narrow, features, labels, targets, config)
        train(twin, features, labels, targets, config)
        for name in PARAMETERS:
            got = getattr(narrow, name)
            assert got.dtype == np.float64 and got.tobytes() == getattr(twin, name).tobytes(), name

    def test_copy_shares_no_memory(self):
        model = self.fit()[0]
        twin = model.copy()
        assert twin is not model and twin.data.tobytes() == model.data.tobytes()
        for name in ("data", "weights") + PARAMETERS:
            assert not np.shares_memory(getattr(twin, name), model.data), name
        twin.w1 = np.zeros_like(twin.w1)
        assert np.any(model.w1 != 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
@example(0, 10, 32, 11)  # a default-sized teacher: 10 features, hidden 32, 11 classes
@example(2**64 - 1, 1, 1, 1)
def test_init_student_block_draws_match_the_scalar_draw_loop(seed, d_in, hidden, n_classes):
    prng, reference = SplitMix64(seed), SplitMix64(seed)
    model = init_student(d_in, hidden, n_classes, prng)
    w1, w2 = reference_init_student(d_in, hidden, n_classes, reference)
    assert model.w1.tobytes() == w1.tobytes() and model.w2.tobytes() == w2.tobytes()
    assert not model.b1.any() and not model.b2.any()
    assert prng.state == reference.state
