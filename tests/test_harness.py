"""Pipeline wiring, determinism, cost probe, and report rendering."""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multikd as mk
import multikd.harness as harness
from multikd.datagen import DataParams
from multikd.ensemble import TargetSet, TeacherBank
from multikd.errors import FormatError, NumericalError, StageError, ValidationError
from multikd.formats import write_all_views, write_logit_dump
from multikd.rng import derive_seed
from multikd.trainer import StudentModel, train
from multikd.harness import (
    AblationReport,
    RunConfig,
    assembly_flop_estimate,
    cost_probe,
    report_machine_text,
    report_table_text,
    run_ablation,
    run_pipeline,
)

SMALL_DATA = DataParams(n_train=160, n_test=80, n_classes=4, dim=8, noise=0.12)


def small_rc(strategy=mk.PKD, seed=1, **kw):
    distill = mk.DistillConfig(strategy=strategy, seed=seed, epochs=kw.pop("epochs", 4),
                               lr=0.1, **kw)
    return RunConfig(distill=distill, data=SMALL_DATA)


class TestRunPipeline:
    def test_none_needs_no_teachers(self):
        row = run_pipeline(small_rc(mk.NONE))
        assert 0.0 <= row.top1 <= 1.0
        assert row.teacher_test_acc == {}

    def test_timing_gives_the_student_fit_seconds_per_epoch(self):
        seconds = run_pipeline(small_rc(mk.NONE, epochs=2), timing=True).epoch_seconds
        assert type(seconds) is float and seconds > 0.0
        assert run_pipeline(small_rc(mk.NONE, epochs=0), timing=True).epoch_seconds is None
        assert run_pipeline(small_rc(mk.NONE, epochs=2), timing=False).epoch_seconds is None

    def test_train_returns_none(self):
        rc = small_rc(mk.NONE, epochs=3)
        view = harness.generate_data(rc).train_dark
        model, config = harness._fresh_student(view, rc.distill, 7)
        assert train(model, view.features, view.labels, TargetSet(mk.NONE), config) is None

    def test_kd_single_uses_teacher_a_only(self):
        row = run_pipeline(small_rc(mk.KD_SINGLE))
        assert set(row.teacher_test_acc) == {"teacher-A"}

    def test_pkd_uses_both_teachers(self):
        row = run_pipeline(small_rc(mk.PKD))
        assert set(row.teacher_test_acc) == {"teacher-A", "teacher-B"}

    def test_deterministic_across_calls(self):
        a = run_pipeline(small_rc(mk.PKD, seed=3))
        b = run_pipeline(small_rc(mk.PKD, seed=3))
        assert a.top1 == b.top1
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a.model, attr), getattr(b.model, attr))

    def test_pkd_with_single_dump_matches_kd_single(self, tmp_path):
        # K=1 collapse at the pipeline level: same dump, same seed
        base = run_pipeline(small_rc(mk.KD_SINGLE, seed=5))
        from multikd.harness import _obtain_data, _obtain_teacher_logits

        rc = small_rc(mk.KD_SINGLE, seed=5)
        data = _obtain_data(rc, None)
        bank, _ = _obtain_teacher_logits(rc, data, None)
        dump_path = tmp_path / "teacherA.txt"
        write_logit_dump(dump_path, "teacher-A", bank.teachers[0])

        for tag in (mk.PKD, mk.GTD, mk.AVG1, mk.AVG2):
            rc_k1 = small_rc(tag, seed=5)
            rc_k1.teacher_paths = [str(dump_path)]
            row = run_pipeline(rc_k1)
            assert row.top1 == base.top1

    def test_loaded_data_dir_matches_generated(self, tmp_path):
        rc = small_rc(mk.NONE, seed=9)
        from multikd.harness import _obtain_data

        data = _obtain_data(rc, None)
        write_all_views(tmp_path / "d", data)
        rc_loaded = small_rc(mk.NONE, seed=9)
        rc_loaded.data_dir = str(tmp_path / "d")
        assert run_pipeline(rc_loaded).top1 == run_pipeline(rc).top1

    def test_misaligned_dump_fails_with_stage_name(self, tmp_path):
        dump_path = tmp_path / "bad.txt"
        write_logit_dump(dump_path, "t", np.zeros((7, 4)))  # wrong N
        rc = small_rc(mk.PKD)
        rc.teacher_paths = [str(dump_path)]
        with pytest.raises(StageError, match="teachers"):
            run_pipeline(rc)


class TestRunAblation:
    def test_report_structure_and_order(self):
        report = run_ablation(small_rc(mk.PKD), [mk.PKD, mk.NONE], [2, 1])
        assert [r.strategy for r in report.rows] == [mk.NONE, mk.NONE, mk.PKD, mk.PKD]
        assert [r.seed for r in report.rows] == [1, 2, 1, 2]
        assert report.failures == []

    def test_cache_does_not_change_results(self):
        lone = run_pipeline(small_rc(mk.PKD, seed=2))
        report = run_ablation(small_rc(mk.PKD), [mk.KD_SINGLE, mk.PKD], [2])
        cached = [r for r in report.rows if r.strategy == mk.PKD][0]
        assert cached.top1 == lone.top1

    def test_machine_report_deterministic(self):
        a = report_machine_text(run_ablation(small_rc(mk.NONE), [mk.NONE], [1, 2]))
        b = report_machine_text(run_ablation(small_rc(mk.NONE), [mk.NONE], [1, 2]))
        assert a == b
        assert a.startswith("#report v1\n")
        line = a.splitlines()[1].split("\t")
        assert line[0] == mk.NONE and line[4] == "NA"

    def test_table_report_contains_means(self):
        report = run_ablation(small_rc(mk.NONE), [mk.NONE], [1, 2])
        text = report_table_text(report)
        assert "strategy" in text and "NONE" in text

    def test_avg1_and_avg2_cells_train_one_student(self):
        report = run_ablation(small_rc(mk.AVG1, epochs=2), [mk.AVG1, mk.AVG2], [1])
        avg1, avg2 = report.rows
        assert (avg1.strategy, avg2.strategy) == (mk.AVG1, mk.AVG2)
        assert avg1.model.data.tobytes() == avg2.model.data.tobytes()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(Exception):
            run_ablation(small_rc(mk.NONE), ["BOGUS"], [1])

    def test_a_bad_seed_is_refused_before_any_cell_runs(self, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "run_pipeline", lambda rc, **kw: cells.append(rc))
        with pytest.raises(ValidationError, match="seed must fit in 64 unsigned bits"):
            run_ablation(small_rc(mk.NONE), [mk.NONE, mk.PKD], [1, -1])
        assert cells == []


DUMP_STRATEGIES = [mk.AVG1, mk.AVG2, mk.GTD, mk.PKD]


@pytest.fixture
def dumped(tmp_path):
    """A base config reading K=5 teacher dumps and a data directory."""
    rc = small_rc(mk.PKD, seed=3, epochs=1)
    data = harness._obtain_data(rc, None)
    write_all_views(tmp_path / "d", data)
    bank, _ = harness._obtain_teacher_logits(rc, data, None)
    rng = np.random.default_rng(0)
    paths = []
    for k in range(5):
        path = str(tmp_path / f"t{k}.logits")
        write_logit_dump(path, f"t{k}", bank.teachers[k % 2] + rng.normal(size=(bank.n, bank.c)))
        paths.append(path)
    return replace(rc, teacher_paths=paths, data_dir=str(tmp_path / "d"))


class TestAblationReadsInputsOnce:
    def test_each_file_read_once(self, dumped, monkeypatch):
        reads = []

        def counting(fn):
            def wrapped(path):
                reads.append(str(path))
                return fn(path)
            return wrapped

        monkeypatch.setattr(harness, "load_logits", counting(harness.load_logits))
        monkeypatch.setattr(harness, "load_all_views", counting(harness.load_all_views))
        report = run_ablation(dumped, DUMP_STRATEGIES, [1, 2])
        assert report.failures == [] and len(report.rows) == 8
        assert sorted(reads) == sorted(dumped.teacher_paths + [dumped.data_dir])

    def test_report_equals_cells_run_alone(self, dumped):
        report = run_ablation(dumped, DUMP_STRATEGIES, [1, 2])
        alone = [run_pipeline(dumped.with_strategy_seed(tag, seed))
                 for tag in DUMP_STRATEGIES for seed in (1, 2)]
        assert report_machine_text(report) == report_machine_text(AblationReport(rows=alone))

    @pytest.mark.parametrize("fault", ["non-finite", "wrong shape"])
    def test_bad_dump_fails_every_cell_alike(self, dumped, fault):
        bad = dumped.teacher_paths[2]
        if fault == "non-finite":
            lines = Path(bad).read_text().splitlines()
            lines[4] = "nan " + " ".join(lines[4].split()[1:])
            Path(bad).write_text("\n".join(lines) + "\n")
            expected = f"stage 'teachers': {bad}:5: non-finite value"
        else:
            write_logit_dump(bad, "t2", np.zeros((7, 4)))
            expected = "stage 'teachers': teacher dump 't2' is 7x4, training data needs 160x4"
        with pytest.raises(StageError) as lone:
            run_pipeline(dumped)
        assert str(lone.value) == expected
        report = run_ablation(dumped, DUMP_STRATEGIES, [1, 2])
        assert report.rows == []
        assert [(tag, seed, str(exc)) for tag, seed, exc in report.failures] == [
            (tag, seed, expected) for tag in DUMP_STRATEGIES for seed in (1, 2)]


class TestBindTeacherDumpsOnce:
    # (banks, teacher forward passes, teacher evaluations) over seeds 1 and 2
    @pytest.mark.parametrize("in_process, strategies, counts", [
        pytest.param(False, DUMP_STRATEGIES, (1, 0, 0), id="dumps"),
        # KD_SINGLE binds the first dump alone
        pytest.param(False, DUMP_STRATEGIES + [mk.KD_SINGLE], (2, 0, 0), id="dumps-and-KD_SINGLE"),
        # per seed: two teachers fit, a bank for KD_SINGLE's roster and one for the rest
        pytest.param(True, list(mk.STRATEGIES), (4, 4, 4), id="in-process"),
    ])
    def test_one_bank_per_roster(self, dumped, monkeypatch, in_process, strategies, counts):
        calls = {"bank": 0, "forward": 0, "evaluate": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name, attr in (("bank", "TeacherBank"), ("forward", "forward"), ("evaluate", "evaluate")):
            monkeypatch.setattr(harness, attr, counting(name, getattr(harness, attr)))
        base = replace(dumped, teacher_paths=[], data_dir=None) if in_process else dumped
        report = run_ablation(base, strategies, [1, 2])
        assert report.failures == [] and len(report.rows) == 2 * len(strategies)
        # every cell evaluates its student once; the rest are teacher evaluations
        assert (calls["bank"], calls["forward"], calls["evaluate"] - len(report.rows)) == counts

    def test_no_teacher_model_outlives_its_fit(self):
        def holds_model(value) -> bool:
            if isinstance(value, StudentModel):
                return True
            if isinstance(value, dict):
                return any(map(holds_model, value.values()))
            if isinstance(value, (list, tuple)):
                return any(map(holds_model, value))
            return hasattr(value, "__dict__") and holds_model(vars(value))

        caches = {}
        run_pipeline(small_rc(mk.PKD, epochs=1), caches=caches)
        assert ("teacher", 1, "teacher-A") in caches
        assert not any(holds_model(value) for value in caches.values())


def train_plain_calls(monkeypatch) -> list:
    """A spy on harness.train_plain: each call's stage seed, or its list of them."""
    calls, real = [], harness.train_plain

    def spy(dataset, config, stage_seed):
        calls.append(stage_seed)
        return real(dataset, config, stage_seed)

    monkeypatch.setattr(harness, "train_plain", spy)
    return calls


TEACHER_A, TEACHER_B = harness.STAGE_TEACHER_A, harness.STAGE_TEACHER_B


def teacher_seeds(*fits) -> list:
    """The stage seeds of (seed, teacher stage) fits."""
    return [derive_seed(seed, stage) for seed, stage in fits]


def overflowing_teacher_b(monkeypatch, scale):
    """Make each seed's generated teacher-B training view `scale` times its size."""
    real = harness.generate_data

    def generate(rc):
        data = real(rc)
        return replace(data, train_b=replace(data.train_b, features=data.train_b.features * scale))

    monkeypatch.setattr(harness, "generate_data", generate)


# The report of six strategies over seeds 1 and 2 (small_rc, 4 epochs)
# whose teacher-B fits fail, recorded before the teachers were fit
# together: NONE and KD_SINGLE need no teacher-B, each other cell fails
# at its teachers stage. A teacher that failed is fit again by every cell
# that needs it.
FAILED_B_ROWS = """#report v1
NONE\t4.0\t1\t0.475\tNA
NONE\t4.0\t2\t0.4\tNA
KD_SINGLE\t4.0\t1\t0.275\tNA
KD_SINGLE\t4.0\t2\t0.3875\tNA
"""


class TestTeachersFitTogether:
    """A run fits every in-process teacher its cells need in one train_plain
    call, at the first need, and each teacher once. If that call fails,
    each teacher is fit alone, as before, so a failing teacher fails the
    same cells with the same error."""

    @pytest.mark.parametrize("strategies, calls", [
        pytest.param(list(mk.STRATEGIES), [[(1, TEACHER_A), (1, TEACHER_B), (2, TEACHER_A), (2, TEACHER_B)]],
                     id="six"),
        pytest.param([mk.NONE, mk.KD_SINGLE], [[(1, TEACHER_A), (2, TEACHER_A)]], id="KD_SINGLE"),
        pytest.param([mk.NONE], [], id="NONE"),
    ])
    def test_a_run_fits_the_teachers_it_needs_in_one_call(self, monkeypatch, strategies, calls):
        seen = train_plain_calls(monkeypatch)
        report = run_ablation(small_rc(epochs=1), strategies, [1, 2])
        assert report.failures == [] and len(report.rows) == 2 * len(strategies)
        assert seen == [teacher_seeds(*fits) for fits in calls]

    def test_a_dump_run_fits_no_teacher(self, dumped, monkeypatch):
        seen = train_plain_calls(monkeypatch)
        assert run_ablation(dumped, list(mk.STRATEGIES), [1, 2]).failures == []
        assert seen == []

    def test_the_cost_probe_fits_both_teachers_in_one_call(self, monkeypatch):
        seen = train_plain_calls(monkeypatch)
        cost_probe(small_rc(epochs=2), repeats=1)
        assert seen == [teacher_seeds((1, TEACHER_A), (1, TEACHER_B))]

    @pytest.mark.parametrize("strategy, stages", [(mk.PKD, [TEACHER_A, TEACHER_B]), (mk.KD_SINGLE, [TEACHER_A])])
    def test_a_lone_cell_fits_its_roster_in_one_call(self, monkeypatch, strategy, stages):
        seen = train_plain_calls(monkeypatch)
        row = run_pipeline(small_rc(strategy, epochs=1))  # as distill runs it, without caches
        assert seen == [teacher_seeds(*[(1, stage) for stage in stages])]
        assert sorted(row.teacher_test_acc) == ["teacher-A", "teacher-B"][:len(stages)]

    @pytest.mark.parametrize("scale, errstate, cause, message", [
        # pytest raises numpy's RuntimeWarning as an error
        pytest.param(1e100, {}, RuntimeWarning, "overflow encountered in dot", id="warning"),
        pytest.param(1e100, {"over": "raise"}, FloatingPointError, "overflow encountered in dot",
                     id="over-raise"),
        pytest.param(1e100, {"all": "ignore"}, NumericalError, "non-finite student logits; training aborted",
                     id="ignore"),
        # this teacher-B fit ends finite, but fitting it alone raises:
        # the group raises too, so the teacher is fit alone
        pytest.param(100.0, {"under": "raise"}, FloatingPointError, "underflow encountered in exp",
                     id="under-raise"),
    ])
    def test_a_failing_teacher_fails_the_cells_it_failed_alone(self, monkeypatch, scale, errstate, cause,
                                                                message):
        overflowing_teacher_b(monkeypatch, scale)
        seen = train_plain_calls(monkeypatch)
        with np.errstate(**errstate):
            report = run_ablation(small_rc(), list(mk.STRATEGIES), [1, 2])
        failed = "".join(f"{tag}\t-\t{seed}\tFAILED\tstage 'teachers': {message}\n"
                         for tag in (mk.AVG1, mk.AVG2, mk.GTD, mk.PKD) for seed in (1, 2))
        assert report_machine_text(report) == FAILED_B_ROWS + failed
        assert {type(exc.__cause__) for _, _, exc in report.failures} == {cause}
        # one group call, then each teacher alone: teacher-B once per cell that needs it
        assert seen == [teacher_seeds((1, TEACHER_A), (1, TEACHER_B), (2, TEACHER_A), (2, TEACHER_B)),
                        *teacher_seeds((1, TEACHER_A), (2, TEACHER_A)),
                        *teacher_seeds((1, TEACHER_B), (2, TEACHER_B)) * 4]


class TestOneMeanBuild:
    """AVG1 and AVG2 distill the unweighted mean of a bank at tau, built
    once per bank and tau in a run and wrapped under each cell's own
    tag; KD_SINGLE builds its own."""

    # over seeds 1 and 2: in-process, per seed KD_SINGLE, AVG1, GTD and PKD
    # build (10 without the shared mean); from dumps, whose bank does not
    # depend on the seed, AVG1 builds once and GTD and PKD once per seed
    @pytest.mark.parametrize("in_process, strategies, builds", [
        pytest.param(True, list(mk.STRATEGIES), 8, id="in-process"),
        pytest.param(False, DUMP_STRATEGIES, 5, id="dumps"),
    ])
    def test_the_mean_is_built_once_per_bank_and_tau(self, dumped, monkeypatch, in_process, strategies, builds):
        built, trained = [], []
        build, train = harness.build_targets, harness.train

        def counting(bank, labels, config):
            built.append(config.strategy)
            return build(bank, labels, config)

        def recording(model, features, labels, target_set, config):
            trained.append(target_set.strategy)
            return train(model, features, labels, target_set, config)

        monkeypatch.setattr(harness, "build_targets", counting)
        monkeypatch.setattr(harness, "train", recording)
        base = replace(dumped, teacher_paths=[], data_dir=None) if in_process else dumped
        report = run_ablation(base, strategies, [1, 2])
        assert report.failures == [] and len(built) == builds
        assert mk.AVG2 not in built
        # every distilling cell trains its own student on a target set of its own tag
        assert [tag for tag in trained if tag != mk.NONE] == [
            tag for tag in strategies if tag != mk.NONE for _ in (1, 2)
        ]

    def test_no_mean_is_held_while_gtd_or_pkd_runs(self, monkeypatch):
        held = []
        run = harness.run_pipeline

        def recording(rc, timing=False, caches=None):
            row = run(rc, timing=timing, caches=caches)
            held.append((rc.distill.strategy, [key[1].teacher_ids for key in caches if key[0] == "mean"]))
            return row

        monkeypatch.setattr(harness, "run_pipeline", recording)
        run_ablation(small_rc(epochs=1), list(mk.STRATEGIES), [1])
        # the rosters of the cached means once each cell has run: none for
        # KD_SINGLE, AVG2 reads AVG1's, and it is freed before GTD runs
        ab = ("teacher-A", "teacher-B")
        assert held == [
            (mk.NONE, []), (mk.KD_SINGLE, []), (mk.AVG1, [ab]), (mk.AVG2, [ab]),
            (mk.GTD, []), (mk.PKD, []),
        ]

    def test_one_dump_shares_its_mean_between_avg1_and_avg2_alone(self, dumped, monkeypatch):
        # KD_SINGLE, AVG1 and AVG2 of one dump all distill the same
        # matrix, yet only AVG1 and AVG2 share it: KD_SINGLE builds once
        # per seed and AVG1 once for both seeds, 3 builds in all
        built = []
        build = harness.build_targets

        def counting(bank, labels, config):
            built.append(config.strategy)
            return build(bank, labels, config)

        base = replace(dumped, teacher_paths=dumped.teacher_paths[:1])
        strategies = [mk.KD_SINGLE, mk.AVG1, mk.AVG2]
        monkeypatch.setattr(harness, "build_targets", counting)
        together = run_ablation(base, strategies, [1, 2])
        assert together.failures == [] and built == [mk.KD_SINGLE, mk.KD_SINGLE, mk.AVG1]
        alone = [row for tag in strategies for row in run_ablation(base, [tag], [1, 2]).rows]
        assert report_machine_text(together) == report_machine_text(AblationReport(alone))

    def test_avg_rows_equal_the_cells_run_alone(self):
        base = small_rc(epochs=2)
        together = run_ablation(base, list(mk.STRATEGIES), [1, 2])
        for tag in (mk.AVG1, mk.AVG2):
            alone = run_ablation(base, [tag], [1, 2])
            shared = [row for row in together.rows if row.strategy == tag]
            assert report_machine_text(AblationReport(shared)) == report_machine_text(alone)
            for a, b in zip(shared, alone.rows):
                assert a.model.data.tobytes() == b.model.data.tobytes()

    def test_a_failed_mean_build_fails_each_cell_with_its_own_tag(self):
        # logits / 1e-310 overflow, so the mean is not finite and nothing is cached
        with np.errstate(all="ignore"):
            report = run_ablation(small_rc(epochs=1, tau=1e-310), [mk.AVG1, mk.AVG2], [1])
        assert report.rows == []
        assert [(tag, str(exc)) for tag, _, exc in report.failures] == [
            (tag, f"stage 'assemble-targets': non-finite {tag} targets; assembly aborted")
            for tag in (mk.AVG1, mk.AVG2)
        ]


class TestCostProbe:
    def test_structure_and_flop_independence(self):
        rc = small_rc(mk.PKD)
        probe3 = cost_probe(replace(rc, distill=rc.distill.with_(epochs=3)), repeats=1)
        probe5 = cost_probe(replace(rc, distill=rc.distill.with_(epochs=5)), repeats=1)
        assert (probe3.epochs, probe5.epochs) == (3, 5)  # the config's epochs, timed
        assert set(probe3.per_epoch_seconds) == {mk.NONE, mk.KD_SINGLE, mk.PKD}
        assert probe3.assembly_flops == probe5.assembly_flops
        assert probe3.assembly_flops[mk.NONE] == 0
        assert probe3.assembly_flops[mk.PKD] == assembly_flop_estimate(160, 2, 4)
        assert probe3.assembly_flops[mk.KD_SINGLE] == assembly_flop_estimate(160, 1, 4)
        assert probe3.pkd_kd_ratio > 0.0
        for tag, secs in probe3.per_epoch_seconds.items():
            assert secs > 0.0

    def test_flop_estimate_scales_with_teachers_not_epochs(self):
        base = assembly_flop_estimate(1000, 2, 11)
        assert assembly_flop_estimate(1000, 4, 11) == 2 * base
        assert assembly_flop_estimate(2000, 2, 11) == 2 * base

    def test_baseline_epoch_no_slower_than_distilled(self):
        # the baseline skips the distillation term, so its epochs are
        # cheaper; measured at full default size where the margin is
        # far above timer noise
        probe = cost_probe(RunConfig(distill=mk.DistillConfig(epochs=4)), repeats=2)
        assert probe.per_epoch_seconds[mk.NONE] <= probe.per_epoch_seconds[mk.KD_SINGLE]

    # ru_maxrss is in kB on Linux and in bytes on macOS
    @pytest.mark.parametrize("platform, maxrss", [("linux", 2048), ("darwin", 2048 * 1024)])
    def test_peak_rss_is_read_in_kb_on_linux_and_macos(self, monkeypatch, platform, maxrss):
        resource = pytest.importorskip("resource")
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
        assert harness._peak_rss_kb() == 2048


class TestDefaultTeachers:
    def test_both_teachers_clear_three_times_chance(self):
        row = run_pipeline(RunConfig(distill=mk.DistillConfig(strategy=mk.PKD, seed=1)))
        floor = 3.0 / 11.0
        assert row.teacher_test_acc["teacher-A"] > floor
        assert row.teacher_test_acc["teacher-B"] > floor


@pytest.mark.parametrize("cause, code", [
    pytest.param(ValidationError("bad flag"), 1, id="usage"),
    pytest.param(FormatError("bad file"), 2, id="format"),
    pytest.param(NumericalError("overflow"), 3, id="numerical"),
    pytest.param(FileNotFoundError("no file"), 2, id="os"),
    pytest.param(KeyError("anything else"), 1, id="other"),
])
def test_a_stage_error_exits_with_the_code_of_its_cause(cause, code):
    def failing():
        raise cause

    with pytest.raises(StageError) as caught:
        harness._stage("some-stage", failing)
    assert caught.value.exit_code == code and caught.value.__cause__ is cause
    assert str(caught.value) == f"stage 'some-stage': {cause}"
