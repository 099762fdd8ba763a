"""The paper's invariants over random shapes, temperatures and references.

Teacher weights lie strictly inside the simplex; with one teacher every
strategy's target is KD_SINGLE's; the GTD/PKD scorer _teacher_scores
scores every teacher row with the bits of its row kernel _inverse_ce,
and on one-hot
references that inverse CE has the bits of the inverse KL (kl_rows of
_oracles.py); AVG1 and AVG2 give the student the same gradient, by the
reference loss_gradient;
AVG1's one-matrix loss plus its entropy gap is the mean of its K
per-teacher losses;
the AVG2 target, summed one teacher at a time, has the bits of
np.mean over the stacked softened matrices in teacher-id order; AVG1,
softening each teacher once, has AVG2's bits; a set of teachers
gives one target, bit for bit, in any listed order; and every target
build_targets makes passes TargetSet's row check, which the student
step relies on in place of a loss check.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import multikd as mk
from multikd import ensemble
from multikd.ensemble import (
    TeacherBank,
    _inverse_ce,
    _reference_rows,
    _teacher_scores,
    build_targets,
)
from multikd.numerics import EPS, softmax_rows

from _oracles import (
    avg1_loss,
    ce_loss,
    entropy_rows,
    kl_rows,
    loss_gradient,
    soften,
    teachers_in_id_order,
    total_loss,
    validate_prob_row,
)

WEIGHT_ROW_SUM_TOL = 1e-6

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

taus = st.floats(0.25, 12.0)


@st.composite
def banks(draw, max_k=6):
    n, c = draw(st.integers(1, 12)), draw(st.integers(2, 8))
    k = draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.1, 20.0))
    bank = TeacherBank([rng.normal(size=(n, c)) * scale for _ in range(k)],
                       [f"t{j}" for j in range(k)])
    return bank, rng.integers(c, size=n)


@SETTINGS
@given(banks(), st.sampled_from([mk.GTD, mk.PKD]), st.floats(0.0, 1.0), taus)
def test_weights_strictly_positive_rows_sum_to_one(bank_labels, mode, h_share, weight_tau):
    bank, labels = bank_labels
    # h strictly between the uniform share 1/C and 1
    h = 1.0 / bank.c + (1.0 - 1.0 / bank.c) * max(h_share, 1e-3)
    raw = _teacher_scores(bank, labels, h if mode == mk.PKD else 1.0, weight_tau)
    config = mk.DistillConfig(strategy=mode, h=h, weight_tau=weight_tau)
    weights = build_targets(bank, labels, config).weights
    assert weights.shape == (bank.n, bank.k)
    assert (raw > 0.0).all() and (weights > 0.0).all()
    assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= WEIGHT_ROW_SUM_TOL


@SETTINGS
@given(banks(), st.sampled_from([mk.GTD, mk.PKD]), st.floats(0.0, 1.0), taus)
def test_raw_weights_are_similarity_ce_of_each_teacher_row(bank_labels, mode, h_share, weight_tau):
    bank, labels = bank_labels
    h = 1.0 / bank.c + (1.0 - 1.0 / bank.c) * max(h_share, 1e-3)
    h = h if mode == mk.PKD else 1.0
    raw = _teacher_scores(bank, labels, h, weight_tau)
    for n, label in enumerate(labels):
        reference = _reference_rows(np.array([label]), bank.c, h)[0]
        for k, logits in enumerate(bank.teachers):
            want = _inverse_ce(reference, soften(logits[n], weight_tau))
            assert raw[n, k].tobytes() == np.float64(want).tobytes(), (n, k)


@SETTINGS
@given(banks(max_k=1), taus, taus)
def test_single_teacher_every_strategy_is_kd_single(bank_labels, tau, weight_tau):
    bank, labels = bank_labels
    config = mk.DistillConfig(strategy=mk.KD_SINGLE, tau=tau, weight_tau=weight_tau)
    expected = build_targets(bank, labels, config).targets
    for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
        got = build_targets(bank, labels, config.with_(strategy=tag)).targets
        assert len(got) == 1 and np.array_equal(got[0], expected[0]), tag


@SETTINGS
@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 2**32 - 1), st.floats(0.1, 60.0))
def test_onehot_similarity_ce_equals_kl(c, label, seed, scale):
    reference = _reference_rows(np.array([label % c]), c, 1.0)[0]
    teacher = soften(np.random.default_rng(seed).normal(size=c) * scale)
    assert _inverse_ce(reference, teacher) == 1.0 / max(kl_rows(reference, teacher), EPS)


@SETTINGS
@given(banks(), taus, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_avg1_and_avg2_give_equal_gradients(bank_labels, tau, alpha, seed):
    bank, labels = bank_labels
    logits = np.random.default_rng(seed).normal(size=(bank.n, bank.c)) * 3.0
    config = mk.DistillConfig(strategy=mk.AVG1, tau=tau, alpha=alpha)
    avg1 = loss_gradient(logits, labels, build_targets(bank, labels, config), config)
    config = config.with_(strategy=mk.AVG2)
    avg2 = loss_gradient(logits, labels, build_targets(bank, labels, config), config)
    assert np.array_equal(avg1, avg2)


@SETTINGS
@given(banks(), taus, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_avg1_total_loss_is_the_mean_of_per_teacher_losses(bank_labels, tau, alpha, seed):
    bank, labels = bank_labels
    logits = np.random.default_rng(seed).normal(size=(bank.n, bank.c)) * 3.0
    config = mk.DistillConfig(strategy=mk.AVG1, tau=tau, alpha=alpha)
    targets = build_targets(bank, labels, config)
    softened = [soften(t, tau) for t in bank.teachers]
    gap = entropy_rows(targets.targets[0]) - np.mean([entropy_rows(t) for t in softened], axis=0)
    got = total_loss(logits, labels, targets, config) + (1 - alpha) * tau * tau * float(np.mean(gap))
    want = alpha * ce_loss(soften(logits), labels) + (1 - alpha) * avg1_loss(logits, softened, tau)
    assert abs(got - want) <= 1e-12 * abs(want)


@SETTINGS
@given(banks(max_k=40), taus)
def test_avg2_target_is_np_mean_of_softened_teachers(bank_labels, tau):
    bank, labels = bank_labels
    target = build_targets(bank, labels, mk.DistillConfig(strategy=mk.AVG2, tau=tau)).targets[0]
    assert np.array_equal(target, np.mean([soften(t, tau) for t in teachers_in_id_order(bank)], axis=0))


@SETTINGS
@given(banks(max_k=40), taus)
def test_avg1_softens_each_teacher_once_with_the_avg2_bits(bank_labels, tau):
    bank, labels = bank_labels
    with mock.patch.object(ensemble, "softmax_rows", wraps=softmax_rows) as counted:
        got = build_targets(bank, labels, mk.DistillConfig(strategy=mk.AVG1, tau=tau))
    assert counted.call_count == bank.k
    want = build_targets(bank, labels, mk.DistillConfig(strategy=mk.AVG2, tau=tau)).targets[0]
    assert got.targets[0].shape == want.shape
    assert got.targets[0].tobytes() == want.tobytes()


@st.composite
def permuted_banks(draw):
    """One bank of 3 to 33 teachers listed as drawn, permuted and in ascending id order,
    with the permutation from the first listing to each of the others.

    Only a bank listed out of id order gathers its GTD/PKD scores into
    id order to sum them, so the ascending listing checks the path
    without that copy against the gathered one. K is drawn on both
    sides of numpy's 8-wide pairwise block: below 8 a row sum adds in
    sequence whatever the copy's layout, from 8 on only a row-major copy
    adds as the scores in id order do.
    """
    k = draw(st.sampled_from([3, 4, 5, 6, 8, 9, 16, 33]))
    ids = draw(st.lists(st.text("abt-0123456789", min_size=1, max_size=4), min_size=k, max_size=k, unique=True))
    perm = draw(st.permutations(range(k)))
    n, c = draw(st.integers(1, 12)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.normal(size=(n, c)) * draw(st.floats(0.1, 20.0)) for _ in range(k)]
    listed = TeacherBank(mats, ids)
    permuted = TeacherBank([mats[j] for j in perm], [ids[j] for j in perm])
    by_id = sorted(range(k), key=ids.__getitem__)
    ascending = TeacherBank([mats[j] for j in by_id], [ids[j] for j in by_id])
    return listed, [(permuted, list(perm)), (ascending, by_id)], rng.integers(c, size=n)


@SETTINGS
@given(permuted_banks(), st.sampled_from([mk.AVG1, mk.AVG2, mk.GTD, mk.PKD]), taus, taus, st.floats(0.0, 1.0))
def test_a_permuted_bank_gives_the_same_targets_bit_for_bit(banks, strategy, tau, weight_tau, h_share):
    listed, others, labels = banks
    h = 1.0 / listed.c + (1.0 - 1.0 / listed.c) * max(h_share, 1e-3)
    config = mk.DistillConfig(strategy=strategy, tau=tau, weight_tau=weight_tau, h=h)
    want = build_targets(listed, labels, config)
    for bank, perm in others:
        got = build_targets(bank, labels, config)
        assert got.targets[0].tobytes() == want.targets[0].tobytes()
        if strategy in (mk.GTD, mk.PKD):  # the weights' columns follow the listed order
            assert got.weights.tobytes() == want.weights[:, perm].tobytes()


@SETTINGS
@given(banks(max_k=10), st.sampled_from([mk.KD_SINGLE, mk.AVG1, mk.AVG2, mk.GTD, mk.PKD]), taus, taus,
       st.floats(0.0, 1.0))
def test_every_built_target_passes_the_target_row_check(bank_labels, strategy, tau, weight_tau, h_share):
    bank, labels = bank_labels
    if strategy == mk.KD_SINGLE:
        bank = TeacherBank(bank.teachers[:1], bank.teacher_ids[:1])
    h = 1.0 / bank.c + (1.0 - 1.0 / bank.c) * max(h_share, 1e-3)
    config = mk.DistillConfig(strategy=strategy, tau=tau, weight_tau=weight_tau, h=h)
    target = build_targets(bank, labels, config).targets[0]  # its TargetSet checked the rows
    validate_prob_row(target, "target")  # and the oracle's check, at the same bound, agrees
