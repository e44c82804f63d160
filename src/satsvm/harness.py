"""Experiment orchestration: grid search with 5-fold CV, sensitivity
sweeps, and corruption-robustness tables.

Grid search, sweeps and robustness tables share one evaluation loop,
:func:`_evaluate`. It goes fold by fold and builds each distinct
kernel's Gram matrix over the training part once for every
configuration that uses it: one Gram per fold and kernel, not per
candidate. A fold holds one Gram at a time and no other kernel matrix:
the test part is scored through :func:`kernel.kernel_product`, the
product behind ``predict``, a block of rows at a time. The largest Gram
of a run (a grid's refit on the full dataset, else the largest training
part) is checked against the size cap before any fold trains. Each
configuration is a batch of its own: its columns (one per candidate; a
grid makes one configuration per sigma, whose columns run over C and the
loss parameters) train together through :func:`trainer.fit_columns`,
which picks the chunks and states how far a batch's decision values may
differ from separate fits' (a one-column batch's are bit-identical to
``decision_values`` on the fitted model). Grid and sweep build those
columns with one mesh builder, :func:`_columns`, and check their axes
with one check, :func:`_check_axes`, before any Gram is built; a grid
checks every axis, searched or not, after :meth:`GridSpec.validated` has
silently dropped the a grid's values <= 0 (the default a grid starts at
0). A grid searches each distinct axis value once, and for a linear
kernel, which sigma does not enter, only the smallest sigma. Scoring an
n-by-B beta a block of test rows at a time adds at most 3.6e-15 *
sum_j |K(x_j, x)| |beta_j| against one product over the whole test part
(measured over 144 shapes, training parts of 48 to 2000 and B from 1 to
1638).

Protocol notes. The dataset is used as given: the protocol normalizes
the whole dataset before it is split into folds, and no scaler is fitted
per fold. Accuracy is percent correct over a fold. Fold accuracies
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

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import CorruptionMode, Dataset, FoldPlan, corrupt
from .errors import ParameterError, ShapeError
from .kernel import KernelKind, check_capacity, gram_matrix, kernel_product
from .loss import PARAMETERS, LossKind
from .seeds import child_seed
from .trainer import TrainerConfig, accuracy, apply_params, fit, fit_columns, sign_labels


def _decade_grid() -> tuple[float, ...]:
    return tuple(10.0**i for i in range(-6, 7))


# The grid axes in enumeration and tie-break order: the ``best_params``
# key (also the parameter it sets, see :func:`trainer.apply_params`) and
# the GridSpec field holding its values. Every loss kind searches C and
# sigma, and the others where ``loss.PARAMETERS`` gives them to its kind.
GRID_AXES = (
    ("C", "c_grid"),
    ("sigma", "sigma_grid"),
    ("a", "a_grid"),
    ("lam", "lambda_grid"),
    ("tau", "tau_grid"),
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
        """Drop the a grid's finite values <= 0, the default's a = 0 among
        them, where the loss vanishes identically or is undefined. Nothing
        is reported; the grid search checks every axis afterwards, so a
        non-finite a stays for it to reject."""
        return replace(self, a_grid=tuple(v for v in self.a_grid if v > 0 or not np.isfinite(v)))


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


def _summarize(per_fold) -> CvResult:
    accs = np.asarray(per_fold, dtype=float)
    return CvResult(mean=float(accs.mean()), std=float(accs.std()), per_fold=tuple(float(a) for a in accs))


def _fold_config(config: TrainerConfig, fold: int) -> TrainerConfig:
    return apply_params(config, {"seed": child_seed(config.seed, f"batches/fold={fold}")})


def _evaluate(folds: list[tuple[Dataset, Dataset]], configs: list[TrainerConfig],
              refit: int = 0) -> list[np.ndarray]:
    """Accuracy of every column of every configuration, trained on each
    fold's training part and scored on its test part: one B-by-k array
    per configuration (B = 1 for a plain one).

    Per fold, each distinct kernel's Gram is built once and one fold Gram
    is alive at a time, the fold's only kernel matrix. Each configuration
    that uses the kernel is a batch of its own: ``fit_columns`` trains its
    columns chunk by chunk and each chunk is scored by ``kernel_product``,
    the call behind ``decision_values``, and :func:`trainer.accuracy`, one
    value per column. The largest Gram of the run, the
    training parts' or a refit's on ``refit`` points, is checked against
    the size cap before fold 0.
    """
    check_capacity(max(refit, *(len(train.X) for train, _ in folds)))
    by_kernel: dict = {}
    for i, config in enumerate(configs):
        by_kernel.setdefault(config.kernel, []).append(i)
    per_fold = [np.empty((config.columns or 1, len(folds))) for config in configs]
    for f, (train, test) in enumerate(folds):
        for kernel, idx in by_kernel.items():
            gram = gram_matrix(kernel, train.X)
            for i in idx:
                for cols, beta in fit_columns(_fold_config(configs[i], f), train.X, train.y, gram=gram):
                    per_fold[i][cols, f] = accuracy(sign_labels(kernel_product(kernel, train.X, test.X, beta)), test.y)
            del gram
    return per_fold


def _plan_folds(ds: Dataset, plan: FoldPlan) -> list:
    """The (train, test) datasets of every fold of ``plan``."""
    if plan.assignments.shape != (ds.n,):
        raise ShapeError("fold plan does not match the dataset", plan.assignments.shape, ds.n)
    return [(ds.subset(plan.train_indices(f)), ds.subset(plan.fold_indices(f))) for f in range(plan.k)]


def _check_axes(config: TrainerConfig, axes) -> None:
    """Apply every value of every (key, values) axis to ``config`` on its
    own, so that an empty axis or an invalid or non-finite value raises
    before any training."""
    for key, values in axes:
        if len(values) == 0:
            raise ParameterError(f"the {key} grid is empty")
        for value in values:
            if not np.isfinite(value):
                raise ParameterError(f"the {key} grid contains the non-finite value {float(value)!r}")
            apply_params(config, {key: value})


def _columns(config: TrainerConfig, axes) -> TrainerConfig:
    """``config`` with one column per point of the mesh of the (key,
    values) axes, in the order and with the repeats the axes give; the
    last axis varies fastest."""
    mesh = np.meshgrid(*(np.asarray(values, dtype=float) for _, values in axes), indexing="ij")
    return apply_params(config, {key: points.ravel() for (key, _), points in zip(axes, mesh)})


def _grid_columns(config: TrainerConfig, grid: GridSpec) -> tuple[list, list[TrainerConfig]]:
    """The axes ``config``'s loss searches, as (key, distinct sorted
    values) in tie-break order, and one config per sigma whose columns
    run over the other axes in that order. Every :data:`GRID_AXES` axis
    is checked first, searched or not. Sigma does not enter a linear
    kernel, so there only the smallest sigma, which wins every tie, is
    searched."""
    _check_axes(config, [(key, getattr(grid, name)) for key, name in GRID_AXES])
    searched = ("C", "sigma", *PARAMETERS[config.loss.kind])
    axes = [(key, sorted(set(getattr(grid, name)))) for key, name in GRID_AXES if key in searched]
    if config.kernel.kind is KernelKind.LINEAR:
        axes = [(key, values[:1] if key == "sigma" else values) for key, values in axes]
    others = [(key, values) for key, values in axes if key != "sigma"]
    return axes, [_columns(apply_params(config, {"sigma": sigma}), others) for sigma in dict(axes)["sigma"]]


def grid_search_models(
    ds: Dataset,
    configs: list[TrainerConfig],
    grid: GridSpec,
    plan: FoldPlan,
) -> list[RunResult]:
    """Exhaustive grid search of every configuration, all candidates in
    one evaluation, so the folds' Grams are built once for all of them.
    Best mean CV accuracy wins, with the deterministic tie-break; one
    result per configuration, each with a timed refit of its winner on
    the full dataset."""
    grid = grid.validated()
    searches = [_grid_columns(config, grid) for config in configs]
    batches = [batch for _, per_sigma in searches for batch in per_sigma]
    accs = iter(_evaluate(_plan_folds(ds, plan), batches, refit=ds.n))
    results = []
    for config, (axes, per_sigma) in zip(configs, searches):
        # per-sigma blocks of (C, other axes) columns, reordered to the
        # tie-break order (C, sigma, other axes)
        blocks = np.stack([next(accs) for _ in per_sigma])
        shape = [len(values) for _, values in axes]
        per_fold = blocks.reshape(shape[1], shape[0], -1, plan.k).swapaxes(0, 1).reshape(-1, plan.k)
        # the first best mean is the tie-break winner: candidates run in
        # lexicographic order of their sorted axis values
        best = int(np.argmax(per_fold.mean(axis=1)))
        params = {key: values[i] for (key, values), i in zip(axes, np.unravel_index(best, shape))}
        cv = _summarize(per_fold[best])
        refit_config = apply_params(config, params)
        gram = gram_matrix(refit_config.kernel, ds.X)
        t0 = time.perf_counter()
        fit(refit_config, ds.X, ds.y, gram=gram)
        elapsed = time.perf_counter() - t0
        del gram
        results.append(RunResult(
            dataset=ds.name,
            model=model_label(config),
            best_params=params,
            mean_accuracy=cv.mean,
            std_accuracy=cv.std,
            train_time_seconds=elapsed,
            per_fold_accuracies=cv.per_fold,
        ))
    return results


def check_sweep_loss(config: TrainerConfig) -> None:
    """Raise ``ParameterError`` unless ``config`` trains the saturating
    loss, whose a and lam a sensitivity sweep varies."""
    if config.loss.kind is not LossKind.EXPSAT:
        raise ParameterError("the sensitivity sweep varies the saturating-loss parameters")


def sensitivity_sweep(
    ds: Dataset,
    config: TrainerConfig,
    a_grid,
    lambda_grid,
    plan: FoldPlan,
) -> list[tuple[float, float, float]]:
    """(a, lam, mean accuracy) triples over the loss-parameter surface,
    all other hyperparameters held fixed."""
    check_sweep_loss(config)
    axes = [("a", a_grid), ("lam", lambda_grid)]
    _check_axes(config, axes)
    batch = _columns(config, axes)
    (per_fold,) = _evaluate(_plan_folds(ds, plan), [batch])
    return [(float(a), float(lam), _summarize(accs).mean)
            for a, lam, accs in zip(batch.loss.a, batch.loss.lam, per_fold)]


def robustness_suite(
    ds: Dataset,
    models: list[tuple[str, TrainerConfig]],
    rates=(0.05, 0.1, 0.2, 0.3),
    mode: CorruptionMode = CorruptionMode.OUTLIERS,
    *,
    plan: FoldPlan,
    factor: float = 10.0,
    seed: int = 0,
):
    """Accuracy per (model, corruption rate), training folds corrupted,
    test folds untouched. The same corrupted folds are shared by every
    model so the comparison is paired; ``plan`` gives the folds. Returns
    the rows plus per-model average accuracy over the rates."""
    if any(config.columns is not None for _, config in models):
        raise ParameterError("expected configurations with one C and one value per loss parameter")
    mode = CorruptionMode(mode)
    clean = _plan_folds(ds, plan)
    rows: list[RobustnessRow] = []
    for rate in rates:
        folds = []
        for f, (train, test) in enumerate(clean):
            cseed = child_seed(seed, f"corruption/rate={rate}/fold={f}")
            folds.append((train if rate == 0.0 else corrupt(train, mode, float(rate), factor, cseed)[0], test))
        for (name, _), per_fold in zip(models, _evaluate(folds, [config for _, config in models])):
            cv = _summarize(per_fold[0])
            rows.append(RobustnessRow(name, float(rate), cv.mean, cv.std, cv.per_fold))
    averages = {
        name: float(np.mean([r.mean_accuracy for r in rows if r.model == name]))
        for name, _ in models
    }
    return rows, averages
