"""Kernel SVM with a smooth, bounded, sparse margin loss.

The package bundles the loss zoo, Gaussian/linear kernels, a mini-batch
Nesterov-accelerated trainer over the representer-form model, dataset
plumbing with corruption procedures, a cross-validated benchmark
harness, Friedman/Nemenyi rank statistics, and numeric checks of the
loss's calibration and generalization properties.
"""

__version__ = "0.1.0"

from .data import (
    CorruptionMode,
    CorruptionRecord,
    DataFormat,
    Dataset,
    FoldPlan,
    apply_scaler,
    inject_label_noise,
    inject_outliers,
    invert_corruption,
    load_dataset,
    make_folds,
    normalize,
    two_cluster_dataset,
    write_csv,
)
from .errors import (
    CapacityError,
    DataFormatError,
    DegenerateStatisticError,
    NumericError,
    ParameterError,
    SatsvmError,
    ShapeError,
)
from .harness import (
    CvResult,
    GridSpec,
    RobustnessRow,
    RunResult,
    accuracy,
    cross_validate,
    grid_search,
    grid_search_models,
    model_label,
    robustness_suite,
    sensitivity_sweep,
)
from .kernel import KernelKind, KernelSpec, gram_matrix, kernel_block
from .loss import LossKind, LossSpec, loss_derivative, loss_supremum, loss_value
from .stats import (
    RankTable,
    TestReport,
    f_critical,
    friedman_F,
    friedman_chi2,
    friedman_nemenyi,
    nemenyi_cd,
    nemenyi_report,
    rank_models,
)
from .theory import (
    CalibrationResult,
    ConditionalRiskQuery,
    calibration_check,
    conditional_risk,
    conditional_risk_branches,
    generalization_bound,
)
from .trainer import (
    TrainedModel,
    TrainerConfig,
    decision_values,
    fit,
    fit_columns,
    full_gradient,
    learning_rate_at,
    learning_rate_sequence,
    load_model,
    objective,
    predict_batch,
    save_model,
    sign_labels,
)
