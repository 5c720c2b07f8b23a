"""Online mirror descent with time-varying regularizers.

Learners for online classification, regression, and filtering derived
from one dual-averaging engine, evaluators that check every theoretical
regret/mistake bound against measured runs, and a CLI harness for seeded,
reproducible experiments.
"""

from .bounds import (
    RunTrace,
    adaptive_filter_bound,
    batch_comparator,
    composite_bound,
    diag_log_bound,
    diag_rare_feature_refinement,
    first_order_mistake_bound,
    grid_comparators,
    engine_audit,
    second_order_bound,
    scale_invariant_bound,
    vaw_bound,
)
from .data import Dataset, generate, parse_csv, parse_svmlight
from .learners import (
    FirstOrderClassifier,
    GradientDescentLearner,
    OnlineLearner,
    SecondOrderClassifier,
    StepRecord,
    VAWRegressor,
)
from .linalg import DiagInverse, RankOneInverse
from .losses import LossEval, absolute, hinge, square
from .prng import Xorshift64Star
from .regularizers import (
    CompositeQuadL1,
    FixedQuadratic,
    GrowingQuadratic,
    LinearScheduled,
    MaxScaled,
    PNorm,
    ScaleInvDiag,
    ScaleInvPNorm,
    SqrtScheduled,
    WeightedQNorm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
