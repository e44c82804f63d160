"""Experiment orchestration: grid search with 5-fold CV, sensitivity
sweeps, and corruption-robustness tables.

Cross-validation, grid search, sweeps and robustness tables share one
evaluation loop, :func:`_evaluate`. It goes fold by fold and builds each
distinct kernel's Gram matrix over the training part once for every
configuration that uses it: one Gram per (fold, sigma), not per
candidate, with results bit-identical to separate fits.

Protocol notes. Accuracy is percent correct over a fold. Fold accuracies
are summarized by their mean and population standard deviation (divide
by k; the convention is documented here because reports elsewhere rarely
state theirs). Grid search is exhaustive over :data:`GRID_AXES`; ties on
mean accuracy are broken toward smaller C, then sigma, then a, then lam,
then tau, which also makes the result independent of grid enumeration
order. The timing in a :class:`RunResult` is the wall clock of the
single best-parameter refit, excluding Gram-matrix construction.

Baselines trained via the shared NAG loop are a convenience, not a
faithful reproduction of their native solvers; their labels carry a
"(NAG)" suffix in outputs to make that explicit.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    CorruptionMode,
    Dataset,
    FoldPlan,
    apply_scaler,
    inject_label_noise,
    inject_outliers,
    normalize,
)
from .errors import ParameterError, ShapeError
from .kernel import gram_matrix
from .loss import LossKind
from .seeds import child_seed
from .trainer import TrainerConfig, fit, predict_batch


def _decade_grid() -> tuple[float, ...]:
    return tuple(10.0**i for i in range(-6, 7))


# The grid axes in enumeration and tie-break order: the ``best_params``
# key (also the config, kernel or loss field it sets), the GridSpec field
# holding its values, and the loss kinds that search it (None: all kinds).
GRID_AXES = (
    ("C", "c_grid", None),
    ("sigma", "sigma_grid", None),
    ("a", "a_grid", (LossKind.EXPSAT,)),
    ("lam", "lambda_grid", (LossKind.EXPSAT,)),
    ("tau", "tau_grid", (LossKind.PINBALL, LossKind.TRUNCATED_PINBALL)),
)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grids; defaults follow the reference protocol."""

    c_grid: tuple[float, ...] = field(default_factory=_decade_grid)
    sigma_grid: tuple[float, ...] = field(default_factory=_decade_grid)
    a_grid: tuple[float, ...] = field(default_factory=lambda: tuple(k / 10 for k in range(51)))
    lambda_grid: tuple[float, ...] = field(default_factory=lambda: tuple(k / 10 for k in range(1, 21)))
    tau_grid: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 0.9)

    def validated(self) -> "GridSpec":
        """Drop the degenerate a=0 point (the loss vanishes identically
        there) and reject empty or non-finite grids."""
        for _, name, _ in GRID_AXES:
            g = getattr(self, name)
            if len(g) == 0:
                raise ParameterError(f"{name} is empty")
            if not all(np.isfinite(v) for v in g):
                raise ParameterError(f"{name} contains non-finite values")
        a_grid = tuple(v for v in self.a_grid if v > 0)
        if len(a_grid) < len(self.a_grid):
            warnings.warn("dropping a=0 from the shape-parameter grid (requires a > 0)", stacklevel=2)
        if not a_grid:
            raise ParameterError("a_grid is empty after dropping a=0")
        return replace(self, a_grid=a_grid)


@dataclass(frozen=True)
class CvResult:
    mean: float
    std: float
    per_fold: tuple[float, ...]


@dataclass(frozen=True)
class RunResult:
    dataset: str
    model: str
    best_params: dict
    mean_accuracy: float
    std_accuracy: float
    train_time_seconds: float
    per_fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class RobustnessRow:
    model: str
    rate: float
    mean_accuracy: float
    std_accuracy: float
    per_fold_accuracies: tuple[float, ...]


def model_label(config: TrainerConfig) -> str:
    """Loss name, suffixed "(NAG)" for the non-native training paths."""
    kind = config.loss.kind
    if kind is LossKind.EXPSAT:
        return "expsat"
    return f"{kind.value} (NAG)"


def accuracy(predictions, truth) -> float:
    """Percent of predictions matching truth; both in {-1, +1}."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ShapeError("predictions and truth must be equal-length vectors", p.shape, t.shape)
    if p.size == 0:
        raise ParameterError("accuracy of an empty prediction set is undefined")
    if not (np.isin(p, (-1.0, 1.0)).all() and np.isin(t, (-1.0, 1.0)).all()):
        raise ParameterError("predictions and truth must be -1 or +1")
    return float(100.0 * np.mean(p == t))


def _summarize(per_fold) -> CvResult:
    accs = np.asarray(per_fold, dtype=float)
    return CvResult(mean=float(accs.mean()), std=float(accs.std()), per_fold=tuple(float(a) for a in accs))


def _fold_config(config: TrainerConfig, fold: int) -> TrainerConfig:
    return replace(config, seed=child_seed(config.seed, f"batches/fold={fold}"))


def _evaluate(folds: list[tuple[Dataset, Dataset]], configs: list[TrainerConfig]) -> list[CvResult]:
    """Accuracy of every configuration, trained on each fold's training
    part and scored on its test part.

    Per fold, each distinct kernel's Gram over the training part is built
    once and passed to ``fit`` for every configuration using it; it is the
    matrix ``fit`` would build itself, so results are bit-identical to
    separate runs. One fold Gram is alive at a time.
    """
    by_kernel: dict = {}
    for i, config in enumerate(configs):
        by_kernel.setdefault(config.kernel, []).append(i)
    per_fold = [[] for _ in configs]
    for f, (train, test) in enumerate(folds):
        for kernel, members in by_kernel.items():
            gram = gram_matrix(kernel, train.X)
            for i in members:
                model = fit(_fold_config(configs[i], f), train.X, train.y, gram=gram)
                per_fold[i].append(accuracy(predict_batch(model, test.X), test.y))
            del gram
    return [_summarize(accs) for accs in per_fold]


def _plan_folds(ds: Dataset, plan: FoldPlan, train_only_scaling: bool = False) -> list:
    """The (train, test) datasets of every fold of ``plan``; with
    ``train_only_scaling`` each training part is normalized and its
    scaler applied to the test part."""
    if plan.assignments.shape != (ds.n,):
        raise ShapeError("fold plan does not match the dataset", plan.assignments.shape, ds.n)
    if train_only_scaling and ds.normalized:
        raise ParameterError("train_only_scaling expects an unnormalized dataset")
    folds = []
    for f in range(plan.k):
        train = ds.subset(plan.train_indices(f))
        test = ds.subset(plan.fold_indices(f))
        if train_only_scaling:
            train = normalize(train)
            test = apply_scaler(test, train.scaler)
        folds.append((train, test))
    return folds


def cross_validate(
    ds: Dataset,
    config: TrainerConfig,
    plan: FoldPlan,
    train_only_scaling: bool = False,
) -> CvResult:
    """k-fold accuracy of one configuration.

    By default the dataset is used as given (normalize the full dataset
    beforehand to follow the reference protocol). With
    ``train_only_scaling`` the scaler is fitted on each fold's training
    part only and applied to its test part, a leakage-safe variant.
    """
    return _evaluate(_plan_folds(ds, plan, train_only_scaling), [config])[0]


def _grid_candidates(kind: LossKind, grid: GridSpec) -> list[dict]:
    """Candidate parameter dicts over the axes ``kind`` searches, in
    tie-break order."""
    axes = [(key, name) for key, name, kinds in GRID_AXES if kinds is None or kind in kinds]
    points = itertools.product(*(sorted(getattr(grid, name)) for _, name in axes))
    return [dict(zip((key for key, _ in axes), point)) for point in points]


def _apply_params(config: TrainerConfig, params: dict) -> TrainerConfig:
    """``config`` with the grid parameters set: C on the config, sigma on
    the kernel, the rest on the loss."""
    loss_params = dict(params)
    C = loss_params.pop("C", config.C)
    kernel = replace(config.kernel, sigma=loss_params.pop("sigma", config.kernel.sigma))
    return replace(config, C=C, kernel=kernel, loss=replace(config.loss, **loss_params))


def _tie_key(params: dict) -> tuple:
    return tuple(params.get(key, 0.0) for key, _, _ in GRID_AXES)


def grid_search(
    ds: Dataset,
    config: TrainerConfig,
    grid: GridSpec,
    plan: FoldPlan,
    train_only_scaling: bool = False,
) -> RunResult:
    """Exhaustive grid search; best mean CV accuracy wins, deterministic
    tie-break, then a timed refit of the winner on the full dataset."""
    candidates = _grid_candidates(config.loss.kind, grid.validated())
    configs = [_apply_params(config, params) for params in candidates]
    results = _evaluate(_plan_folds(ds, plan, train_only_scaling), configs)
    cv, params = min(zip(results, candidates), key=lambda pair: (-pair[0].mean, _tie_key(pair[1])))
    refit_config = _apply_params(config, params)
    gram = gram_matrix(refit_config.kernel, ds.X)
    t0 = time.perf_counter()
    fit(refit_config, ds.X, ds.y, gram=gram)
    elapsed = time.perf_counter() - t0
    return RunResult(
        dataset=ds.name,
        model=model_label(config),
        best_params=params,
        mean_accuracy=cv.mean,
        std_accuracy=cv.std,
        train_time_seconds=elapsed,
        per_fold_accuracies=cv.per_fold,
    )


def sensitivity_sweep(
    ds: Dataset,
    config: TrainerConfig,
    a_grid,
    lambda_grid,
    plan: FoldPlan,
) -> list[tuple[float, float, float]]:
    """(a, lam, mean accuracy) triples over the loss-parameter surface,
    all other hyperparameters held fixed."""
    if config.loss.kind is not LossKind.EXPSAT:
        raise ParameterError("the sensitivity sweep varies the saturating-loss parameters")
    cells = [(a, lam) for a in a_grid for lam in lambda_grid]
    configs = [_apply_params(config, {"a": a, "lam": lam}) for a, lam in cells]
    results = _evaluate(_plan_folds(ds, plan), configs)
    return [(float(a), float(lam), cv.mean) for (a, lam), cv in zip(cells, results)]


def _corrupted(train: Dataset, mode: CorruptionMode, rate: float, factor: float, seed: int) -> Dataset:
    """Corrupt a training part; fold evaluation data stays clean."""
    if rate == 0.0:
        return train
    if mode is CorruptionMode.OUTLIERS:
        return inject_outliers(train, rate, factor=factor, seed=seed)[0]
    return inject_label_noise(train, rate, seed=seed)[0]


def robustness_suite(
    ds: Dataset,
    models: list[tuple[str, TrainerConfig]],
    rates=(0.05, 0.1, 0.2, 0.3),
    mode: CorruptionMode = CorruptionMode.OUTLIERS,
    plan: FoldPlan | None = None,
    factor: float = 10.0,
    seed: int = 0,
):
    """Accuracy per (model, corruption rate), training folds corrupted,
    test folds untouched. The same corrupted folds are shared by every
    model so the comparison is paired. Returns the rows plus per-model
    average accuracy over the rates."""
    if plan is None:
        raise ParameterError("a fold plan is required")
    mode = CorruptionMode(mode)
    clean = _plan_folds(ds, plan)
    rows: list[RobustnessRow] = []
    for rate in rates:
        folds = []
        for f, (train, test) in enumerate(clean):
            cseed = child_seed(seed, f"corruption/rate={rate}/fold={f}")
            folds.append((_corrupted(train, mode, float(rate), factor, cseed), test))
        for (name, _), cv in zip(models, _evaluate(folds, [config for _, config in models])):
            rows.append(RobustnessRow(name, float(rate), cv.mean, cv.std, cv.per_fold))
    averages = {
        name: float(np.mean([r.mean_accuracy for r in rows if r.model == name]))
        for name, _ in models
    }
    return rows, averages
