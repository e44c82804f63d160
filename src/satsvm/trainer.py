"""Kernel SVM trainer: objective, gradient, mini-batch NAG loop, predictor.

The model is the representer-form expansion ``f(x) = sum_j beta_j
K(x_j, x)`` over all training points, with no intercept. Training
minimizes

    f(beta) = 0.5 * beta' K beta + (C/n) * sum_k L(xi_k),
    xi_k = 1 - y_k * (K beta)_k,

with the configured margin loss ``L`` (the saturating family by
default; hinge and pinball run through the same loop as subgradient
baselines). The optimizer is Nesterov-accelerated mini-batch descent:
each iteration samples ``s`` indices without replacement, evaluates the
gradient at the look-ahead point ``beta + r*v`` (full-vector ``K beta``
regularizer term, batch-restricted loss term scaled by ``C/s``), and
applies the velocity update. The learning rate follows the recurrence
``alpha <- alpha * exp(-eta * t)`` after each iteration. At the defaults
``alpha0 = eta = 0.1`` the rate is 2.8e-6 at iteration 15 and exactly
0.0 from iteration 123 on; this is faithful to the published schedule
and is surfaced here rather than silently softened. Once the rate is
0.0 and the momentum step no longer moves beta, no later iteration can
change beta, so the loop returns there (after iteration 122 at the
defaults); ``iterations_run`` still records ``max_iters``, and the
model and its file are the same as after the full loop.

:func:`fit_columns` runs the same loop for many models at once, the
columns of an n-by-B beta that share everything but C and the loss
parameters. A single model is a batch of one: :func:`fit` goes through
the same training body and only wraps its one column as a
:class:`TrainedModel`. Gram matrices are plain read-only n-by-n arrays
(:func:`kernel.gram_matrix`).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import pairwise

import numpy as np

from .data import check_layout
from .errors import CapacityError, DataFormatError, NumericError, ParameterError, ShapeError
from .kernel import KernelSpec, block_rows, gram_matrix, kernel_block
from .loss import PARAMETERS, LossSpec, loss_derivative, loss_derivative_bound, loss_value

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for one training run.

    Defaults are the reference constants: ``beta0 = v0 = 0.01``,
    ``alpha0 = eta = 0.1``, momentum ``r = 0.6``, 1000 iterations, and a
    batch size resolved at fit time to 4 when n < 100 and 32 otherwise.

    ``C`` and the loss parameters may also be length-B arrays, one value
    per column: :func:`fit_columns` then trains the B models that share
    every other setting together.
    """

    C: float = 1.0
    loss: LossSpec = field(default_factory=LossSpec.expsat)
    kernel: KernelSpec = field(default_factory=KernelSpec.gaussian)
    beta0: float = 0.01
    v0: float = 0.01
    alpha0: float = 0.1
    eta: float = 0.1
    r: float = 0.6
    batch_size: int | None = None
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not np.all(np.greater(self.C, 0)):
            raise ParameterError(f"trade-off C must be > 0, got {self.C}")
        if not self.alpha0 > 0:
            raise ParameterError(f"initial learning rate must be > 0, got {self.alpha0}")
        if not self.eta > 0:
            raise ParameterError(f"learning-rate decay eta must be > 0, got {self.eta}")
        if not 0.0 <= self.r < 1.0:
            raise ParameterError(f"momentum r must lie in [0, 1), got {self.r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        shapes = [np.shape(v) for _, v in self.column_parameters()]
        if any(len(shape) > 1 for shape in shapes) or len({shape for shape in shapes if shape}) > 1:
            raise ShapeError("C and the loss parameters must be numbers or equal-length vectors", *shapes)

    def resolved_batch_size(self, n: int) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 4 if n < 100 else 32

    def column_parameters(self) -> list[tuple[str, object]]:
        """C and the parameters the loss uses, by name; each a number or
        one value per column."""
        return [("C", self.C), *((name, getattr(self.loss, name)) for name in PARAMETERS[self.loss.kind])]

    @property
    def columns(self) -> int | None:
        """B when C or a loss parameter is given per column, else None."""
        sizes = [np.size(v) for _, v in self.column_parameters() if np.ndim(v)]
        return sizes[0] if sizes else None


@dataclass(frozen=True)
class TrainedModel:
    beta: np.ndarray
    support_points: np.ndarray
    kernel: KernelSpec
    config_snapshot: TrainerConfig
    iterations_run: int
    final_objective: float
    scaler: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        pts = np.asarray(self.support_points, dtype=float)
        if beta.shape != (pts.shape[0],):
            raise ShapeError("one coefficient per support point", beta.shape, pts.shape)
        if not np.isfinite(beta).all():
            raise ParameterError("model coefficients contain NaN or Inf")
        beta = beta.copy()
        pts = pts.copy()
        beta.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "support_points", pts)


def _check_labels(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ParameterError("labels must be exactly -1 or +1")
    return y


def objective(config: TrainerConfig, K: np.ndarray, y, beta) -> float | np.ndarray:
    """Regularized empirical risk 0.5*b'Kb + (C/n) * sum L(1 - y*(Kb)),
    with ``K`` the n-by-n Gram matrix.

    For an n-by-B ``beta``, one value per column, with the column's C and
    loss parameters when ``config`` gives them per column.
    """
    y = _check_labels(y)
    beta = np.asarray(beta, dtype=float)
    n = len(K)
    if beta.shape[:1] != (n,) or beta.ndim > 2 or y.shape != (n,):
        raise ShapeError("beta and y must match the kernel matrix", beta.shape, y.shape, n)
    kb = K @ beta
    if beta.ndim == 1:
        xi = 1.0 - y * kb
        return float(0.5 * (beta @ kb) + (config.C / n) * np.sum(loss_value(config.loss, xi)))
    xi = 1.0 - y[:, None] * kb
    quad = np.einsum("ij,ij->j", beta, kb)
    return 0.5 * quad + (config.C / n) * np.sum(loss_value(config.loss, xi), axis=0)


def full_gradient(config: TrainerConfig, K: np.ndarray, y, beta) -> np.ndarray:
    """Exact gradient of :func:`objective` at ``beta``.

    ``K beta - (C/n) * sum_k L'(xi_k) y_k K_k``; samples on or past the
    margin (xi_k <= 0) contribute nothing for losses that vanish there.
    """
    y = _check_labels(y)
    beta = np.asarray(beta, dtype=float)
    n = len(K)
    if beta.shape != (n,) or y.shape != (n,):
        raise ShapeError("beta and y must match the kernel matrix", beta.shape, y.shape, n)
    kb = K @ beta
    xi = 1.0 - y * kb
    w = loss_derivative(config.loss, xi) * y
    return kb - (config.C / n) * (K @ w)


def learning_rate_sequence(alpha0: float, eta: float, n_iters: int):
    """Yield the learning rate used at iterations t = 1..n_iters.

    Iterates ``alpha <- alpha * exp(-eta * t)`` applied after iteration
    ``t``; the closed form is ``alpha0 * exp(-eta * t * (t-1) / 2)``.
    """
    alpha = alpha0
    for t in range(1, n_iters + 1):
        yield alpha
        alpha *= math.exp(-eta * t)


def learning_rate_at(alpha0: float, eta: float, t: int) -> float:
    """Closed form of the decayed learning rate at 1-based iteration t."""
    return alpha0 * math.exp(-eta * t * (t - 1) / 2.0)


# Gradients are kept below this bound once beta is frozen; it leaves a
# factor of 2**24 below the float64 maximum for rounding in any order.
_SAFE_GRADIENT = 2.0**1000


def _frozen(config: TrainerConfig, K: np.ndarray, beta: np.ndarray, v: np.ndarray) -> bool:
    """Whether iterations at learning rate 0.0 can neither change beta nor
    raise, for every column of ``beta``.

    At rate 0.0 the update ``v <- r*v - 0.0*grad`` has the magnitude of
    ``r*v`` and only the sign of a zero can differ, so the steps only
    shrink. Once ``beta + r*v == beta`` every later step is absorbed as
    well, because rounding is monotone. A -0.0 in beta is excluded, since
    adding +0.0 turns it into +0.0. The full loop would still raise
    ``NumericError`` on a non-finite gradient, so every later gradient,
    whatever its batch, must also stay far inside the float range. With
    ``k = max(max|K|, 1)``: ``|K beta| <= n*k*max|beta|``, the batch sum
    of the loss term is at most ``n*k*max|L'|`` before scaling by ``C/s``
    and ``C*k*max|L'|`` after.
    """
    if np.any(np.signbit(beta) & (beta == 0.0)) or not np.array_equal(beta + config.r * v, beta):
        return False
    k_max = max(K.max(), -K.min(), 1.0)
    d_max = loss_derivative_bound(config.loss)
    bound = k_max * (len(beta) * (np.abs(beta).max(axis=0) + d_max) + config.C * d_max)
    return bool(np.all(bound < _SAFE_GRADIENT))


def _candidate(config: TrainerConfig, ok: np.ndarray) -> str:
    """`` for C=..., <loss parameters>`` of the first column where ``ok``
    is False, when ``config`` gives parameters per column; else ''."""
    if config.columns is None:
        return ""
    j = int(np.argmin(ok))
    return " for " + ", ".join(f"{name}={float(np.broadcast_to(v, ok.shape)[j])!r}"
                               for name, v in config.column_parameters())


def _prepare(config: TrainerConfig, X, y, gram: np.ndarray | None):
    """Checked training data, the Gram matrix over it and the batch size."""
    X = np.asarray(X, dtype=float)
    y = _check_labels(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ShapeError("X must be n-by-m with one label per row", X.shape, y.shape)
    n = X.shape[0]
    s = config.resolved_batch_size(n)
    if s > n:
        raise ParameterError(f"batch size {s} exceeds the {n} training samples")
    if gram is None:
        gram = gram_matrix(config.kernel, X)
    elif gram.shape != (n, n):
        raise ShapeError("precomputed gram matrix does not match X", gram.shape, n)
    return X, y, gram, s


def _nag(config: TrainerConfig, K: np.ndarray, y: np.ndarray, s: int) -> np.ndarray:
    """The mini-batch NAG loop over the columns of an n-by-B beta.

    Every column draws the same batches, so each iteration makes one
    batch draw and two matrix products for all columns; C and the loss
    parameters broadcast over the columns. Returns once the rate is 0.0
    and every column is frozen (see :func:`_frozen`).
    """
    n = len(y)
    scale = config.C / s
    beta = np.full((n, 1 if config.columns is None else config.columns), config.beta0, dtype=float)
    v = np.full(beta.shape, config.v0, dtype=float)
    yc = y[:, None]
    rng = np.random.default_rng(config.seed)

    # overflow is detected explicitly and reported as a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        rates = pairwise(learning_rate_sequence(config.alpha0, config.eta, config.max_iters + 1))
        for t, (alpha, next_alpha) in enumerate(rates, start=1):
            batch = rng.choice(n, size=s, replace=False)
            beta_look = beta + config.r * v
            kb = K @ beta_look
            yb = yc[batch]
            xi = 1.0 - yb * kb[batch]
            w = loss_derivative(config.loss, xi) * yb
            grad = kb - scale * (K[batch].T @ w)
            if not np.isfinite(grad).all():
                which = _candidate(config, np.isfinite(grad).all(axis=0))
                raise NumericError(f"non-finite gradient at iteration {t}{which}")
            v = config.r * v - alpha * grad
            beta = beta_look + v
            if next_alpha == 0.0 and _frozen(config, K, beta, v):
                break
    return beta


# Largest n-by-B coefficient matrix that fit_columns trains at once; the
# loop holds a few more of that size. Callers split wider batches.
COLUMN_BYTES = 1 << 22


def _train(config: TrainerConfig, X, y, gram: np.ndarray | None):
    """The one training body behind :func:`fit` and :func:`fit_columns`.

    Returns the checked ``X``, the batch size, the n-by-B betas and their
    final objectives, after raising ``NumericError`` for a non-finite one
    with the failing column's parameters. A plain config (no per-column
    parameters) takes the 1-D objective of its one column, the value a
    model records: the n-by-B form sums in another order.
    """
    X, y, gram, s = _prepare(config, X, y, gram)
    n, B = X.shape[0], config.columns or 1
    if B > 1 and 8 * n * B > COLUMN_BYTES:
        raise CapacityError(f"{B} columns of {n} coefficients exceed the {COLUMN_BYTES}-byte column budget")
    beta = _nag(config, gram, y, s)
    with np.errstate(over="ignore", invalid="ignore"):
        final = objective(config, gram, y, beta[:, 0] if config.columns is None else beta)
    finals = np.atleast_1d(final)
    ok = np.isfinite(finals)
    if not ok.all():
        j = int(np.argmin(ok))
        raise NumericError(f"non-finite final objective {float(finals[j])!r}{_candidate(config, ok)}")
    return X, s, beta, final


def fit(config: TrainerConfig, X, y, gram: np.ndarray | None = None) -> TrainedModel:
    """Train by mini-batch NAG for up to ``max_iters`` iterations.

    The loop returns early once the learning rate is exactly 0.0 and
    beta can no longer move (see :func:`_frozen`): the result is then
    bit-identical to running all ``max_iters`` iterations, including a
    ``NumericError`` that a later iteration would raise, and
    ``iterations_run`` records ``max_iters`` either way. A non-finite
    final objective also raises ``NumericError``. This is the one-column
    case of :func:`fit_columns`, wrapped as a model.

    Deterministic for a fixed (config, data, seed). ``gram`` may be
    supplied to reuse a precomputed n-by-n kernel matrix over ``X``.
    """
    if config.columns is not None:
        raise ParameterError("fit trains one model; train per-column parameters with fit_columns")
    X, s, beta, final = _train(config, X, y, gram)
    return TrainedModel(
        beta=beta[:, 0],
        support_points=X,
        kernel=config.kernel,
        config_snapshot=replace(config, batch_size=s),
        iterations_run=config.max_iters,
        final_objective=final,
    )


def fit_columns(config: TrainerConfig, X, y, gram: np.ndarray | None = None) -> np.ndarray:
    """Train every column of ``config`` in one NAG loop; the n-by-B betas.

    Column j is what :func:`fit` would train for the config holding
    column j's C and loss parameters, up to rounding: the matrix products
    sum in another order, and ``K beta`` differs by at most
    ``1e-12 * sum_j |K_kj| * m_j``, with ``m_j`` the largest ``|beta_j|``
    of the run. One column is bit-identical to :func:`fit`. A
    ``NumericError`` names the failing column's parameters. The betas may
    take at most ``COLUMN_BYTES`` (``CapacityError`` past it).
    """
    return _train(config, X, y, gram)[2]


def decision_values(model: TrainedModel, X) -> np.ndarray:
    """sum_j beta_j K(x_j, x) over the support points, for every row x of ``X``.

    Query rows go through the kernel in blocks of
    :func:`~satsvm.kernel.block_rows` rows, so a block of kernel values and
    its scratch take at most ``BLOCK_BYTES`` and the query-by-support
    matrix is never held whole.
    """
    X = np.asarray(X, dtype=float)
    S = model.support_points
    if X.ndim != 2 or X.shape[1] != S.shape[1]:
        raise ShapeError("query dimension must match support points", X.shape, S.shape)
    rows = block_rows(S.shape[0])
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], rows):
        out[start : start + rows] = kernel_block(model.kernel, S, X[start : start + rows]) @ model.beta
    return out


def sign_labels(values) -> np.ndarray:
    """Class labels from decision values; a zero value maps to +1."""
    return np.where(np.asarray(values) >= 0.0, 1.0, -1.0)


def predict_batch(model: TrainedModel, X) -> np.ndarray:
    return sign_labels(decision_values(model, X))


def _to_dict(spec) -> dict:
    """Fields of a config or spec, nested specs included and enum kinds
    as their string values."""
    out = {}
    for f in fields(spec):
        v = getattr(spec, f.name)
        out[f.name] = v.value if isinstance(v, enum.Enum) else _to_dict(v) if is_dataclass(v) else v
    return out


def config_from_dict(d: dict) -> TrainerConfig:
    return TrainerConfig(**{**d, "loss": LossSpec(**d["loss"]), "kernel": KernelSpec(**d["kernel"])})


def save_model(model: TrainedModel) -> str:
    """Canonical JSON text for a trained model.

    Floats are emitted at full round-trip precision, so equal models
    serialize to identical bytes.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": _to_dict(model.kernel),
        "beta": [float(b) for b in model.beta],
        "support_points": [[float(v) for v in row] for row in model.support_points],
        "config": _to_dict(model.config_snapshot),
        "iterations_run": model.iterations_run,
        "final_objective": model.final_objective,
        "scaler": None if model.scaler is None else [[a, b] for a, b in model.scaler],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# The layout of a model file, in the terms of :func:`data.check_layout`.
_KERNEL_DOC = {"kind": str, "sigma": float}
_MODEL_DOC = {
    "format_version": int, "kernel": _KERNEL_DOC, "beta": [float], "support_points": [[float]],
    "iterations_run": int, "final_objective": float, "scaler": ([[float]],),
    "config": {
        **dict.fromkeys(("C", "beta0", "v0", "alpha0", "eta", "r"), float),
        "loss": {"kind": str, **dict.fromkeys(("a", "lam", "tau", "delta", "delta1", "delta2"), float)},
        "kernel": _KERNEL_DOC, "batch_size": (int,), "max_iters": int, "seed": int,
    },
}


def load_model(text: str) -> TrainedModel:
    """Parse a model file written by :func:`save_model`.

    Every field is checked; a malformed file raises ``DataFormatError``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model file is not valid JSON: {exc}") from None
    check_layout(doc, _MODEL_DOC, "model")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise DataFormatError(f"unsupported model format version {doc['format_version']}")
    points = doc["support_points"]
    widths = {len(row) for row in points}
    if len(widths) != 1:
        raise DataFormatError("model support points must be a non-empty list of equal-length rows")
    (m,) = widths
    if len(doc["beta"]) != len(points):
        raise DataFormatError(f"model has {len(doc['beta'])} beta values for {len(points)} support points")
    scaler = doc["scaler"]
    if scaler is not None and (len(scaler) != m or any(len(pair) != 2 for pair in scaler)):
        raise DataFormatError(f"model scaler must hold {m} (min, max) pairs, one per feature")
    support_points = np.array(points, dtype=float)
    if not (np.isfinite(support_points).all() and np.isfinite(np.array(scaler or [], dtype=float)).all()):
        raise DataFormatError("model support points or scaler contain NaN or Inf")
    if not math.isfinite(doc["final_objective"]):
        raise DataFormatError(f"model final_objective must be finite, got {doc['final_objective']!r}")
    try:
        return TrainedModel(
            beta=np.array(doc["beta"], dtype=float),
            support_points=support_points,
            kernel=KernelSpec(**doc["kernel"]),
            config_snapshot=config_from_dict(doc["config"]),
            iterations_run=doc["iterations_run"],
            final_objective=doc["final_objective"],
            scaler=None if scaler is None else tuple((float(a), float(b)) for a, b in scaler),
        )
    except ValueError as exc:
        raise DataFormatError(f"invalid model: {exc}") from None
