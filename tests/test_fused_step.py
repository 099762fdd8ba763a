"""The fused student step against the step-by-step reference loop.

train() runs one kernel per batch on rows gathered once per epoch. Its
final parameters must equal, bit for bit, those of the plain loop built
from loss_gradient (tests/_oracles.py), for every strategy and for
batches that do not divide N; train returns None. A fit that fails a
check must raise, at the same step, what checked_train raises, the loop
that checks every step, and leave its model bytes, though train checks
the logit gradient and the whole buffer once per epoch and replays a
failing epoch. AVG1 steps must cost the same at any number of teachers. A
StudentModel is one float64 buffer whose fields are views: the steps
update the caller's own arrays, also when a step fails, and whatever
dtype the model was built from, it trains as its float64 twin.
"""

import copy
import pickle
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
from _oracles import (
    batch_targets,
    checked_train,
    reference_init_student,
    reference_step,
    reference_train,
    step_gradients,
)

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


def step_callees(fit):
    """The callees the profile hook sees in each _step call of one train call.

    Returns one list per _step call, in order, and the exception train
    raised, or None. A Python function is named by its code object, a
    builtin method by its owner and name: a ufunc method by the ufunc
    (logical_and.reduce), any other by its type (ndarray.dot). A ufunc
    call itself is no profile event, so np.isfinite, np.maximum and the
    operators are not listed.
    """
    model, features, labels, targets, config = fit
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
    except Exception as exc:  # returned, for the caller to compare
        return seen, exc
    finally:
        sys.setprofile(None)
    return seen, None


def callees_per_step(strategy, k, steps=8):
    """The callees of each step of a clean one-epoch fit of `steps` batches."""
    seen, error = step_callees(make_fit(
        strategy, n=steps * 4, d=5, c=4, hidden=6, k=k, tau=3.0, alpha=0.5,
        batch_size=4, epochs=1, seed=3))
    assert error is None
    return seen


# Every call a step of a clean epoch makes, in order: the forward pass
# and its two products, the logits check, the softmax's row max and row
# sum, the three backward products and two bias sums. NONE and every
# distilling strategy make the same calls.
STEP_CALLEES = [
    "_step", "_forward_cached", "ndarray.dot", "ndarray.dot", "logical_and.reduce",
    "softmax_rows", "maximum.reduce", "add.reduce",
    "ndarray.dot", "add.reduce", "ndarray.dot", "ndarray.dot", "add.reduce",
]

# Every step of a replayed epoch is checked: the logit-gradient check
# after the softmax and the buffer check after the update join the calls
# above.
CHECKED_STEP_CALLEES = [
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
    # faster step at a higher count. The logit-gradient and weight checks
    # then left the step for one test of the whole buffer per epoch, a
    # cost the difference below cancels: 13 and 13. A step that gains
    # calls fails here, and so does one that adds, drops or swaps a call
    # at the same count.
    for strategy, k in ((mk.NONE, 1), (mk.PKD, 2)):
        assert calls_per_step(strategy, k) == len(STEP_CALLEES) == 13
        assert callees_per_step(strategy, k) == [STEP_CALLEES] * 8, strategy


def test_a_failing_epoch_replays_its_steps_with_every_check():
    # at lr 1e156 the second update leaves w1 or w2 non-finite: the
    # unchecked epoch runs on to the third step's logits check, then the
    # replay runs the first two steps again, checked, and raises at the
    # second step's buffer check
    model, features, labels, targets, config = make_fit(
        mk.PKD, n=12, d=3, c=3, hidden=4, k=2, tau=2.0, alpha=0.5,
        batch_size=4, epochs=2, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        seen, error = step_callees((model, features, labels, targets, config.with_(lr=1e156)))
    assert isinstance(error, NumericalError)
    assert str(error) == "non-finite parameters after update; training aborted"
    assert len(CHECKED_STEP_CALLEES) == 15
    assert seen == [STEP_CALLEES, STEP_CALLEES, STEP_CALLEES[:5],
                    CHECKED_STEP_CALLEES, CHECKED_STEP_CALLEES]


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


def replay_fit(strategy, n, seed, lr=0.2, tau=2.0, train_tau=None, scale=1.0, row=None):
    """A three-epoch fit in batches of 4 that fails a check at a chosen step.

    lr, and train_tau in place of the tau the targets were built at,
    drive the failure; scale multiplies the features, or only the one
    given row of them.
    """
    model, features, labels, targets, config = make_fit(
        strategy, n=n, d=3, c=3, hidden=4, k=2, tau=tau, alpha=0.5,
        batch_size=4, epochs=3, seed=seed)
    if row is None:
        features = features * scale
    else:
        features[row] *= scale
    config = config.with_(lr=lr, tau=train_tau or tau)
    return model, features, labels, targets, config


def bias_last_fit():
    """A fit whose last step carries b2[0], and nothing else, past the
    largest double.

    Zero features and b1 hold the hidden layer at 0, so only b2 trains,
    and a row labelled 1, the larger logit, moves nothing. The last
    step's row is labelled 0.
    """
    n, seed = 4, 5
    labels = np.ones(n, dtype=np.int64)
    labels[SplitMix64(seed).permutation(n)[-1]] = 0
    model = StudentModel(np.ones((2, 3)), np.zeros(2), np.ones((2, 2)), [1.79e308, 1.795e308])
    config = DistillConfig(strategy=mk.NONE, lr=1e307, epochs=1, batch_size=1, seed=seed)
    return model, np.zeros((n, 3)), labels, TargetSet(mk.NONE), config


def bias_at_entry_fit():
    """A fit that starts from b1[0] = -inf: its hidden unit is dead, and
    relu gives the bias a zero gradient, so it stays -inf."""
    fit = replay_fit(mk.PKD, 40, 1)
    fit[0].b1[0] = -np.inf
    return fit


LOGITS = "non-finite student logits; training aborted"
GRADIENT = "non-finite logit gradient; training aborted"
WEIGHTS = "non-finite parameters after update; training aborted"

# Each fit fails one of the step's three checks at the step given as
# (epoch, step of the epoch), found by running checked_train on it. n 12
# is three whole batches; n 14 and 18 end each epoch with a tail of two.
REPLAYS = [
    ("logits-first", replay_fit(mk.NONE, 16, 1, scale=np.inf), LOGITS, (1, 1)),
    ("gradient-first", replay_fit(mk.PKD, 16, 1, train_tau=1e-310), GRADIENT, (1, 1)),
    ("weights-first", replay_fit(mk.NONE, 16, 1, lr=1e308, scale=1e6), WEIGHTS, (1, 1)),
    # a row 1e140 times the others: its first step leaves the weights
    # near 1e140, and its second, in epoch 2, overflows the logits
    ("logits-mid", replay_fit(mk.NONE, 16, 2, scale=1e140, row=2), LOGITS, (2, 3)),
    ("gradient-mid", replay_fit(mk.PKD, 16, 11, lr=5e2, tau=1e-302), GRADIENT, (3, 2)),
    ("weights-mid", replay_fit(mk.NONE, 18, 34, lr=1e155), WEIGHTS, (2, 2)),
    ("logits-last", replay_fit(mk.NONE, 12, 15, lr=2e131), LOGITS, (1, 3)),
    ("gradient-last", replay_fit(mk.PKD, 12, 34, lr=2e3, tau=1e-304), GRADIENT, (1, 3)),
    # no later step of the epoch runs a logits check: the buffer test alone
    # sees the non-finite weights
    ("weights-last", replay_fit(mk.NONE, 12, 10, lr=1e155), WEIGHTS, (1, 3)),
    ("logits-last-before-tail", replay_fit(mk.NONE, 14, 3, lr=5e152), LOGITS, (1, 3)),
    ("gradient-last-before-tail", replay_fit(mk.PKD, 14, 32, lr=5e1, tau=1e-307), GRADIENT, (1, 3)),
    ("weights-last-before-tail", replay_fit(mk.PKD, 14, 20, lr=5e154), WEIGHTS, (1, 3)),
    ("logits-tail", replay_fit(mk.NONE, 14, 21, lr=5e110), LOGITS, (1, 4)),
    ("gradient-tail", replay_fit(mk.PKD, 14, 12, lr=1e3, tau=1e-302), GRADIENT, (1, 4)),
    ("weights-tail", replay_fit(mk.PKD, 14, 18, lr=2e154), WEIGHTS, (1, 4)),
    # the buffer check reads the biases too: a bias that alone goes
    # non-finite fails its step, and so does one that is non-finite at entry
    ("bias-last", bias_last_fit(), WEIGHTS, (1, 4)),
    ("bias-at-entry", bias_at_entry_fit(), WEIGHTS, (1, 1)),
]


def checked_outcome(fit):
    """What checked_train does to a copy of fit's model: the exception it
    raises, how many steps it started, and the model it leaves."""
    model, features, labels, targets, config = fit
    model = model.copy()
    with mock.patch.object(_oracles, "_step", wraps=_oracles._step) as steps:
        try:
            checked_train(model, features, labels, targets, config)
        except Exception as exc:  # returned, for the caller to compare
            return exc, steps.call_count, model
    return None, steps.call_count, model


class TestReplay:
    """train skips the logit-gradient and buffer checks in its steps, tests
    the whole buffer once per epoch, and replays a failing epoch from its
    start with every step checked. What it raises, and the model it
    leaves, must be checked_train's, the loop that checks every step."""

    @pytest.mark.parametrize("fit, message, at", [case[1:] for case in REPLAYS],
                             ids=[case[0] for case in REPLAYS])
    @pytest.mark.parametrize("mode", ["ignore", "raise", "warn"])
    def test_a_failing_fit_raises_and_leaves_what_the_checked_loop_does(self, fit, message, at, mode):
        # under "raise", and under "warn" with warnings raised as errors
        # (as this suite runs), an overflow or invalid value raises first,
        # in the unchecked epoch and in the checked loop alike
        model, features, labels, targets, config = fit
        model = model.copy()
        arrays = [getattr(model, name) for name in PARAMETERS]
        with np.errstate(over=mode, invalid=mode, divide=mode, under="ignore"):
            error, started, expected = checked_outcome(fit)
            with pytest.raises(type(error)) as raised:
                train(model, features, labels, targets, config)
        if mode == "ignore":
            steps_per_epoch = -(-labels.size // config.batch_size)
            assert (type(error), str(error)) == (NumericalError, message)
            assert divmod(started - 1, steps_per_epoch) == (at[0] - 1, at[1] - 1)
        assert str(raised.value) == str(error)
        for name, array in zip(PARAMETERS, arrays):
            assert getattr(model, name) is array, name
        assert model.data.tobytes() == expected.data.tobytes()

    def test_logits_whose_only_non_finite_entries_are_minus_inf_are_refused(self):
        # the 1e10 row's class-0 logit, 1e10 times w2's -1e300, is -inf:
        # its probability is 0, and the gradient and the model stay
        # finite, so only the logits check, which every step keeps, sees it
        model = StudentModel([[1.0]], [0.0], [[-1e300], [1.0]], [0.0, 0.0])
        config = DistillConfig(strategy=mk.NONE, lr=0.1, epochs=2, batch_size=1, seed=3)
        fit = (model, np.array([[0.5], [0.25], [1e10], [0.75]]), np.ones(4, dtype=np.int64),
               TargetSet(mk.NONE), config)
        with np.errstate(over="ignore"):
            error, started, expected = checked_outcome(fit)
            with pytest.raises(NumericalError) as raised:
                train(*fit)
        assert str(raised.value) == str(error) == LOGITS
        assert model.data.tobytes() == expected.data.tobytes() and np.isfinite(model.data).all()


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
        for name in ("data",) + PARAMETERS:
            assert not np.shares_memory(getattr(twin, name), model.data), name
        twin.w1 = np.zeros_like(twin.w1)
        assert np.any(model.w1 != 0.0)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda model: pickle.loads(pickle.dumps(model))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copied_or_unpickled_model_owns_its_buffer_and_trains_as_copy_does(self, duplicate):
        model, features, labels, targets, config = self.fit()
        twin, expected = duplicate(model), model.copy()
        assert twin.data.tobytes() == model.data.tobytes()
        for name in PARAMETERS:
            assert np.shares_memory(getattr(twin, name), twin.data), name
            assert not np.shares_memory(getattr(twin, name), model.data), name
        train(twin, features, labels, targets, config)
        train(expected, features, labels, targets, config)
        for name in ("data",) + PARAMETERS:
            assert getattr(twin, name).tobytes() == getattr(expected, name).tobytes(), name


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
