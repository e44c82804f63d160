"""Kernel SVM with a smooth, bounded, sparse margin loss.

The package bundles the loss zoo, Gaussian/linear kernels, a mini-batch
Nesterov-accelerated trainer over the representer-form model, dataset
plumbing with corruption procedures, a cross-validated benchmark
harness, Friedman/Nemenyi rank statistics, and numeric checks of the
loss's calibration and generalization properties.

Each name below is loaded from its module on first use (PEP 562), so
importing the package, or one of its modules, loads only what is used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it gives the package
_EXPORTS = {
    "data": (
        "CorruptionMode", "CorruptionRecord", "DataFormat", "Dataset", "FoldPlan", "apply_scaler", "corrupt",
        "inject_label_noise", "inject_outliers", "invert_corruption", "load_dataset", "make_folds", "normalize",
        "two_cluster_dataset", "write_csv",
    ),
    "errors": (
        "CapacityError", "DataFormatError", "DegenerateStatisticError", "NumericError", "ParameterError",
        "SatsvmError", "ShapeError",
    ),
    "harness": (
        "CvResult", "GridSpec", "RobustnessRow", "RunResult", "grid_search_models", "model_label",
        "robustness_suite", "sensitivity_sweep",
    ),
    "kernel": ("KernelKind", "KernelSpec", "gram_matrix", "kernel_block"),
    "loss": ("LossKind", "LossSpec", "loss_derivative", "loss_supremum", "loss_value"),
    "seeds": (),
    "stats": (
        "RankTable", "TestReport", "f_critical", "friedman_F", "friedman_chi2", "friedman_nemenyi", "nemenyi_cd",
        "nemenyi_report", "rank_models",
    ),
    "theory": (
        "CalibrationResult", "ConditionalRiskQuery", "calibration_check", "conditional_risk",
        "generalization_bound",
    ),
    "trainer": (
        "TrainedModel", "TrainerConfig", "accuracy", "apply_params", "decision_values", "fit", "fit_columns",
        "learning_rate_at", "learning_rate_sequence", "load_model", "objective", "save_model", "sign_labels",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the layer modules are public names too, as when the package loaded them all
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
