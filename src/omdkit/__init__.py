"""Online mirror descent with time-varying regularizers.

Learners for online classification, regression, and filtering derived
from one dual-averaging engine, evaluators that check every theoretical
regret/mistake bound against measured runs, and a CLI harness for seeded,
reproducible experiments.
"""

from .bounds import (
    BoundReport,
    RunTrace,
    adaptive_filter_bound,
    batch_comparator,
    composite_bound,
    diag_log_bound,
    diag_quad_sum,
    diag_rare_feature_refinement,
    first_order_mistake_bound,
    grid_comparators,
    implicit_log_solve,
    engine_audit,
    second_order_bound,
    sqrt_sum_inequality_check,
    scale_invariant_bound,
    vaw_bound,
)
from .data import Dataset, GeneratorSpec, generate, parse_csv, parse_svmlight
from .learners import (
    AdaptiveFilter,
    FirstOrderClassifier,
    GradientDescentLearner,
    OnlineLearner,
    ScaleInvariantRegressor,
    SecondOrderClassifier,
    StepRecord,
    VAWRegressor,
)
from .linalg import DiagInverse, RankOneInverse, SparseVec
from .losses import LossEval, absolute, hinge, hinge_condition_check, square
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
