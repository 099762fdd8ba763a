"""Multi-teacher knowledge distillation with offline logit assembly.

Teachers enter as stored logits. They are scored per sample against a
reference distribution (one-hot, or the preferred variant keeping mass
h on the true class), their softened distributions are combined once
into one soft target, and a small classifier is trained against it.
Includes a deterministic synthetic two-modality data generator, a
darkening/gamma preprocessing pair, and a CLI harness for ablations and
cost probes.
"""

from .config import AVG1, AVG2, GTD, KD_SINGLE, NONE, PKD, STRATEGIES, DistillConfig
from .datagen import DataParams, Dataset, SyntheticData, gen_dataset
from .ensemble import TargetSet, TeacherBank, build_targets
from .errors import (
    FormatError,
    MultiKdError,
    NumericalError,
    StageError,
    ValidationError,
)
from .harness import (
    AblationReport,
    CostProbe,
    PipelineRow,
    RunConfig,
    assembly_flop_estimate,
    cost_probe,
    run_ablation,
    run_pipeline,
)
from .preprocess import darken, gamma_correct
from .rng import SplitMix64, derive_seed
from .trainer import StudentModel, evaluate, forward, init_student, train

__version__ = "0.1.0"
