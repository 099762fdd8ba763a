"""Public-API refusals, each with its error type and exact message.

Every row is an input the package refuses before doing any work, so
the harness generates no data for any of them. A target matrix is
refused as built: not finite first, then a negative entry, then a row
sum off 1 by more than ROW_SUM_TOL. The last row reaches the
logit-gradient check of the student step, the one check that stands
for the loss the step no longer computes: at a denormal temperature
finite logits overflow, their softened rows are nan, and so is the
gradient.
"""

import numpy as np
import pytest

import multikd as mk
import multikd.harness as harness
from multikd.datagen import Dataset, SyntheticData
from multikd.ensemble import TargetSet
from multikd.errors import NumericalError, ValidationError
from multikd.harness import AblationReport, RunConfig, cost_probe
from multikd.preprocess import darken, gamma_correct
from multikd.rng import SplitMix64
from multikd.trainer import StudentModel, evaluate, init_student, train


def _model(d_in=3, n_classes=2, b2=None):
    b2 = np.zeros(n_classes) if b2 is None else b2
    return StudentModel(np.zeros((4, d_in)), np.zeros(4), np.zeros((n_classes, 4)), b2)


def _views() -> SyntheticData:
    return SyntheticData(*[Dataset(np.zeros((2, 2)), [0, 1], 2, "A", "train")] * 6)


def _denormal_tau_step():
    target_set = TargetSet(mk.KD_SINGLE, [np.array([[0.5, 0.5]])])
    config = mk.DistillConfig(strategy=mk.KD_SINGLE, tau=1e-310, alpha=0.5)
    with np.errstate(invalid="ignore"):  # inf - inf in the softmax
        train(_model(b2=[1000.0, 0.0]), np.zeros((1, 3)), [0], target_set, config)


def _train(features, labels, target_set=TargetSet(mk.NONE), config=mk.DistillConfig(strategy=mk.NONE),
           model=None):
    return lambda: train(model or _model(), np.asarray(features), labels, target_set, config)


REFUSALS = [
    ("dataset-misaligned", lambda: Dataset(np.zeros((3, 2)), [0, 1], 3, "A", "train"),
     ValidationError, "features and labels misaligned"),
    ("dataset-modality", lambda: Dataset(np.zeros((2, 2)), [0, 1], 3, "C", "train"),
     ValidationError, "unknown modality tag 'C'"),
    ("dataset-split", lambda: Dataset(np.zeros((2, 2)), [0, 1], 3, "A", "dev"),
     ValidationError, "unknown split tag 'dev'"),
    ("view-split", lambda: _views().view("dev", "A"),
     ValidationError, "no view for split='dev' modality='A'"),
    ("targets-strategy", lambda: TargetSet("FOO"),
     ValidationError, "unknown strategy 'FOO'"),
    ("targets-none", lambda: TargetSet(mk.NONE, [np.zeros((2, 2))]),
     ValidationError, "strategy NONE carries no targets"),
    ("targets-pkd", lambda: TargetSet(mk.PKD, []),
     ValidationError, "strategy PKD carries exactly one target matrix"),
    ("targets-nonfinite-first", lambda: TargetSet(mk.PKD, [np.array([[np.nan, -1.0]])]),
     NumericalError, "non-finite PKD targets; assembly aborted"),
    ("targets-negative", lambda: TargetSet(mk.GTD, [np.array([[0.5, 0.5], [1.5, -0.5]])]),
     ValidationError, "GTD targets have a negative entry"),
    ("targets-row-sum", lambda: TargetSet(mk.AVG2, [np.array([[0.5, 0.5], [0.5, 0.5 + 2e-9]])]),
     ValidationError, "AVG2 target rows must sum to 1 within 1e-09"),
    ("report-mean", lambda: AblationReport(rows=[]).mean_top1("PKD"),
     ValidationError, "no rows for strategy PKD"),
    ("cost-probe-repeats", lambda: cost_probe(RunConfig(distill=mk.DistillConfig(epochs=2)), repeats=0),
     ValidationError, "cost probe needs at least one repeat"),
    ("gamma-empty", lambda: gamma_correct(np.array([])),
     ValidationError, "intensities must be non-empty"),
    ("darken-nan", lambda: darken(np.array([np.nan])),
     ValidationError, "intensities must be finite"),
    ("model-field", lambda: setattr(_model(), "bias", 1),
     AttributeError, "StudentModel has no assignable field 'bias'"),
    # the constructor checks w1, b1, w2, b2 in that order: a length-1 b1
    # would broadcast in forward, a narrow w2 fail inside numpy
    ("model-w1-vector", lambda: StudentModel(np.ones(3), np.zeros(3), np.ones((2, 3)), np.zeros(2)),
     ValidationError, "w1 must be a hidden x d_in matrix, got shape (3,)"),
    ("model-b1-length", lambda: StudentModel(np.ones((3, 2)), np.zeros(1), np.ones((2, 3)), np.zeros(2)),
     ValidationError, "b1 must have shape (3,), got (1,)"),
    ("model-w2-width", lambda: StudentModel(np.ones((3, 2)), np.zeros(3), np.ones((2, 4)), np.zeros(2)),
     ValidationError, "w2 must be a classes x 3 matrix, got shape (2, 4)"),
    ("model-w2-vector", lambda: StudentModel(np.ones((3, 2)), np.zeros(3), np.ones(3), np.zeros(2)),
     ValidationError, "w2 must be a classes x 3 matrix, got shape (3,)"),
    ("model-b2-length", lambda: StudentModel(np.ones((3, 2)), np.zeros(3), np.ones((2, 3)), np.zeros(3)),
     ValidationError, "b2 must have shape (2,), got (3,)"),
    ("model-b1-scalar", lambda: StudentModel(np.ones((3, 2)), 0.0, np.ones((2, 3)), np.zeros(2)),
     ValidationError, "b1 must have shape (3,), got ()"),
    ("init-dims", lambda: init_student(0, 4, 3, SplitMix64(1)),
     ValidationError, "model dimensions must be positive"),
    ("train-misaligned", _train(np.zeros((3, 3)), [0, 1]),
     ValidationError, "features and labels misaligned"),
    ("train-width", _train(np.zeros((2, 4)), [0, 1]),
     ValidationError, "features have 4 dims, model expects 3"),
    ("train-targets", _train(np.zeros((2, 3)), [0, 1], TargetSet(mk.PKD, [np.full((3, 2), 0.5)]),
                             mk.DistillConfig(strategy=mk.PKD)),
     ValidationError, "target matrix (3, 2) misaligned with data (2, 2)"),
    ("evaluate-misaligned", lambda: evaluate(_model(), np.zeros((3, 3)), [0, 1]),
     ValidationError, "features and labels misaligned"),
    ("logit-gradient", _denormal_tau_step,
     NumericalError, "non-finite logit gradient; training aborted"),
]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(call, error, message, id=name) for name, call, error, message in REFUSALS
])
def test_refused_with_its_type_and_exact_message(monkeypatch, call, error, message):
    generated = []
    monkeypatch.setattr(harness, "gen_dataset", lambda *args: generated.append(args))
    with pytest.raises(error) as caught, np.errstate(over="ignore"):
        call()
    assert type(caught.value) is error and str(caught.value) == message
    assert generated == []
