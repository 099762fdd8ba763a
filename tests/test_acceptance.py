"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines. The
ablation criteria share a single five-seed six-strategy run at package
defaults; everything is seeded, so the numbers (and pass/fail) are
bit-reproducible, and the report bytes are pinned against a golden
file written by `multikd ablate --seeds 1,2,3,4,5`. Losses and
logit gradients come from the reference math of _oracles.py; the
one-hot criterion runs _inverse_ce, the row kernel of the GTD/PKD
scorer _teacher_scores.
"""

import filecmp
import math
import time
from pathlib import Path

import numpy as np
import pytest

import multikd as mk
from multikd.cli import main as cli_main
from multikd.datagen import DataParams, gen_dataset
from multikd.ensemble import (
    TargetSet,
    TeacherBank,
    _inverse_ce,
    _reference_rows,
    build_targets,
)
from multikd.formats import load_dataset, load_logits, write_dataset, write_logit_dump
from multikd.harness import RunConfig, cost_probe, report_machine_text, run_ablation
from multikd.numerics import EPS
from multikd.rng import SplitMix64
from multikd.trainer import forward, init_student

from _oracles import (
    avg1_loss, entropy_rows, fd_gradient, kd_loss, kl_rows, loss_gradient, rel_err, soften, step_gradients,
    total_loss,
)

GOLDEN_ABLATION = Path(__file__).parent / "golden" / "ablation_default.tsv"
README = Path(__file__).resolve().parents[1] / "README.md"


def report(num, name, ok, detail):
    print(f"\ncriterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def ablation():
    started = time.perf_counter()
    rep = run_ablation(RunConfig(), list(mk.STRATEGIES), [1, 2, 3, 4, 5])
    elapsed = time.perf_counter() - started
    assert not rep.failures, rep.failures
    return rep, elapsed


def test_criterion_1_weight_simplex():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_sum = 0.0
    for i in range(1000):
        k = int(rng.integers(1, 9))
        c = int(rng.integers(2, 17))
        n = int(rng.integers(1, 6))
        bank = TeacherBank([rng.normal(size=(n, c)) * 4.0 for _ in range(k)],
                           [f"t{j}" for j in range(k)])
        labels = rng.integers(c, size=n)
        config = mk.DistillConfig(strategy=mk.PKD if i % 2 == 0 else mk.GTD, h=0.99)
        w = build_targets(bank, labels, config).weights
        worst_sum = max(worst_sum, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
        ok = ((w > 0.0) & (w <= 1.0)).all()
        if not (ok and worst_sum <= 1e-9):
            break
    elapsed = time.perf_counter() - started
    report(1, "weight simplex", ok and worst_sum <= 1e-9 and elapsed < 1.0,
           f"1000 banks, worst row-sum error {worst_sum:.2e}, {elapsed:.2f}s")


def test_criterion_2_k1_collapse():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 9))
        bank = TeacherBank([rng.normal(size=(n, c)) * 3.0], ["only"])
        labels = rng.integers(c, size=n)
        logits = rng.normal(size=(n, c)) * 2.0
        tau = float(rng.uniform(0.5, 8.0))
        alpha = float(rng.uniform(0.0, 1.0))
        ref_cfg = mk.DistillConfig(strategy=mk.KD_SINGLE, tau=tau, alpha=alpha)
        ref = total_loss(logits, labels, build_targets(bank, labels, ref_cfg), ref_cfg)
        for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD):
            config = mk.DistillConfig(strategy=tag, tau=tau, alpha=alpha)
            val = total_loss(logits, labels, build_targets(bank, labels, config), config)
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
    elapsed = time.perf_counter() - started
    report(2, "K=1 collapse", worst <= 1e-12 and elapsed < 1.0,
           f"100 cases x 4 strategies, worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_onehot_kl_ce_equivalence():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 17))
        label = int(rng.integers(c))
        true_prob = 10.0 ** rng.uniform(math.log10(1e-6), math.log10(0.999))
        rest = rng.random(c - 1) + 1e-9
        rest = rest / rest.sum() * (1.0 - true_prob)
        row = np.insert(rest, label, true_prob)
        ref = _reference_rows(np.array([label]), c, 1.0)[0]
        a = 1.0 / max(kl_rows(ref, row), EPS)
        b = _inverse_ce(ref, row)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.perf_counter() - started
    report(3, "one-hot KL == CE similarity", worst <= 1e-9 and elapsed < 1.0,
           f"1000 rows, worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_avg1_avg2_identity():
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    worst_grad, worst_gap, min_gap = 0.0, 0.0, float("inf")
    for _ in range(100):
        n, c, k = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(2, 6))
        tau = float(rng.uniform(0.5, 8.0))
        bank = TeacherBank([rng.normal(size=(n, c)) * 3.0 for _ in range(k)],
                           [f"t{j}" for j in range(k)])
        labels = rng.integers(c, size=n)
        logits = rng.normal(size=(n, c)) * 2.0
        cfg1 = mk.DistillConfig(strategy=mk.AVG1, tau=tau, alpha=0.5)
        cfg2 = mk.DistillConfig(strategy=mk.AVG2, tau=tau, alpha=0.5)
        t1 = build_targets(bank, labels, cfg1)
        t2 = build_targets(bank, labels, cfg2)
        g1 = loss_gradient(logits, labels, t1, cfg1)
        g2 = loss_gradient(logits, labels, t2, cfg2)
        worst_grad = max(worst_grad, float(np.max(np.abs(g1 - g2))))
        softened = [soften(t, tau) for t in bank.teachers]
        gap = avg1_loss(logits, softened, tau) - kd_loss(logits, t2.targets[0], tau)
        mean_h = entropy_rows(np.mean(softened, axis=0))
        teach_h = np.mean([entropy_rows(t) for t in softened], axis=0)
        predicted = tau * tau * float(np.mean(mean_h - teach_h))
        worst_gap = max(worst_gap, abs(gap - predicted))
        min_gap = min(min_gap, gap)
    elapsed = time.perf_counter() - started
    ok = worst_grad <= 1e-10 and worst_gap <= 1e-9 and min_gap >= -1e-10 and elapsed < 1.0
    report(4, "AVG-1/AVG-2 identity", ok,
           f"grad gap {worst_grad:.2e}, entropy-gap error {worst_gap:.2e}, "
           f"min loss gap {min_gap:.2e}, {elapsed:.2f}s")


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(505)
    started = time.perf_counter()
    worst_logit, worst_param = 0.0, 0.0
    for i in range(100):
        strategy = mk.STRATEGIES[i % len(mk.STRATEGIES)]
        n, d, c = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 5))
        k = 1 if strategy == mk.KD_SINGLE else int(rng.integers(1, 4))
        tau = float(rng.uniform(0.8, 6.0))
        alpha = float(rng.uniform(0.1, 0.9))
        config = mk.DistillConfig(strategy=strategy, tau=tau, alpha=alpha)
        labels = rng.integers(c, size=n)
        if strategy == mk.NONE:
            targets = TargetSet(mk.NONE)
        else:
            bank = TeacherBank([rng.normal(size=(n, c)) * 2.0 for _ in range(k)],
                               [f"t{j}" for j in range(k)])
            targets = build_targets(bank, labels, config)

        logits = rng.normal(size=(n, c)) * 2.0

        def loss_of_logits(flat):
            return total_loss(flat.reshape(n, c), labels, targets, config)

        numeric = fd_gradient(loss_of_logits, logits.ravel()).reshape(n, c)
        analytic = loss_gradient(logits, labels, targets, config)
        worst_logit = max(worst_logit, rel_err(analytic, numeric))

        features = rng.random((n, d))
        model = init_student(d, hidden, c, SplitMix64(900 + i))
        grads = step_gradients(model, features, labels, targets, config)
        for idx, attr in enumerate(("w1", "b1", "w2", "b2")):
            def loss_of_param(flat, attr=attr):
                probe = model.copy()
                setattr(probe, attr, flat.reshape(getattr(model, attr).shape))
                return total_loss(forward(probe, features), labels, targets, config)

            numeric = fd_gradient(loss_of_param, getattr(model, attr).ravel())
            worst_param = max(worst_param, rel_err(grads[idx].ravel(), numeric))
    elapsed = time.perf_counter() - started
    ok = worst_logit <= 1e-4 and worst_param <= 1e-4 and elapsed < 10.0
    report(5, "finite-difference gradient checks", ok,
           f"100 configs, worst logit-grad rel err {worst_logit:.2e}, "
           f"worst param-grad rel err {worst_param:.2e}, {elapsed:.2f}s")


def test_criterion_6_gamma_correction():
    started = time.perf_counter()
    cube = mk.gamma_correct(np.array([0.125]), 3.0)[0]
    grid = np.linspace(0.0, 1.0, 1024)
    identity = np.array_equal(mk.gamma_correct(grid, 1.0), grid)
    corrected = mk.gamma_correct(grid, 3.0)
    monotone = bool((np.diff(corrected) >= 0.0).all())
    elapsed = time.perf_counter() - started
    ok = abs(cube - 0.5) <= 1e-12 and identity and monotone and elapsed < 1.0
    report(6, "gamma intensity correction", ok,
           f"0.125^(1/3) err {abs(cube - 0.5):.2e}, identity {identity}, "
           f"monotone {monotone}, {elapsed:.2f}s")


def test_criterion_7_desk_ablation_ordering(ablation):
    rep, elapsed = ablation
    v = {s: rep.mean_top1(s) for s in mk.STRATEGIES}
    lead_over_none = v[mk.PKD] - v[mk.NONE]
    beats_single = v[mk.PKD] >= v[mk.KD_SINGLE]
    near_avg = v[mk.PKD] >= max(v[mk.AVG1], v[mk.AVG2]) - 0.005
    ok = lead_over_none >= 0.02 and beats_single and near_avg and elapsed < 300.0
    detail = (" ".join(f"{s}={v[s]:.4f}" for s in mk.STRATEGIES)
              + f" | PKD-NONE={100*lead_over_none:+.2f}pts, PKD>=KD {beats_single}, "
                f"PKD>=maxAVG-0.5 {near_avg}, {elapsed:.0f}s")
    report(7, "desk-scale ablation ordering", ok, detail)


def test_criterion_8_gtd_inferiority(ablation):
    rep, _ = ablation
    gtd, pkd = rep.mean_top1(mk.GTD), rep.mean_top1(mk.PKD)
    report(8, "GTD does not beat PKD", gtd <= pkd,
           f"GTD={gtd:.4f} <= PKD={pkd:.4f}")


def test_golden_ablation_report(ablation):
    # running twice (criterion 10) cannot see a change that moves every
    # number alike; the pinned bytes can
    rep, _ = ablation
    assert report_machine_text(rep).encode("utf-8") == GOLDEN_ABLATION.read_bytes()


def test_readme_five_seed_table_is_the_golden_means():
    # README copies the table by hand: the first block under its
    # ablation heading must hold each strategy's golden mean top-1
    text = README.read_text(encoding="utf-8")
    section = text.split("## What the default ablation shows", 1)[1]
    table = section.split("```", 2)[1].strip().splitlines()
    top1: dict[str, list[float]] = {}
    for line in GOLDEN_ABLATION.read_text(encoding="utf-8").splitlines()[1:]:
        strategy, _, _, value, _ = line.split("\t")
        top1.setdefault(strategy, []).append(float(value))
    assert [line.split() for line in table] == [
        [strategy, f"{np.mean(values):.4f}"] for strategy, values in top1.items()
    ]


def test_criterion_9_zero_added_cost():
    started = time.perf_counter()
    probe = cost_probe(RunConfig(distill=mk.DistillConfig(epochs=10)), repeats=6)
    probe_small = cost_probe(RunConfig(distill=mk.DistillConfig(epochs=3)), repeats=1)
    ratio = probe.pkd_kd_ratio
    flops_stable = probe.assembly_flops == probe_small.assembly_flops
    elapsed = time.perf_counter() - started
    ok = abs(ratio - 1.0) <= 0.10 and flops_stable and elapsed < 60.0
    report(9, "zero added per-epoch cost", ok,
           f"PKD/KD per-epoch ratio {ratio:.3f}, assembly flops epoch-independent "
           f"{flops_stable} ({probe.assembly_flops[mk.PKD]} ops), {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    small = ["--n-train", "200", "--n-test", "100", "--classes", "4", "--dim", "8",
             "--epochs", "4", "--seeds", "1,2", "--strategies", "NONE,PKD"]
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    assert cli_main(["ablate", *small, "--out", str(out_a)]) == 0
    assert cli_main(["ablate", *small, "--out", str(out_b)]) == 0
    reports_equal = (
        filecmp.cmp(f"{out_a}.txt", f"{out_b}.txt", shallow=False)
        and filecmp.cmp(f"{out_a}.tsv", f"{out_b}.tsv", shallow=False)
    )

    data = gen_dataset(77, DataParams(n_train=40, n_test=20, n_classes=3, dim=6))
    ds_path = tmp_path / "ds.txt"
    write_dataset(ds_path, data.train_dark)
    loaded = load_dataset(ds_path)
    dataset_roundtrip = np.array_equal(loaded.features, data.train_dark.features) and \
        np.array_equal(loaded.labels, data.train_dark.labels)

    rng = np.random.default_rng(4242)
    rows = rng.normal(size=(25, 7)) * math.pi
    dump_path = tmp_path / "dump.txt"
    write_logit_dump(dump_path, "teacher-X", rows)
    dump_roundtrip = np.array_equal(load_logits(dump_path).rows, rows)

    elapsed = time.perf_counter() - started
    ok = reports_equal and dataset_roundtrip and dump_roundtrip and elapsed < 60.0
    report(10, "byte-identical reports and bit-exact round trips", ok,
           f"reports {reports_equal}, dataset {dataset_roundtrip}, "
           f"dump {dump_roundtrip}, {elapsed:.0f}s")
