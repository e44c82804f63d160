"""Kernel SVM trainer: objective, mini-batch NAG loop, predictor.

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
and is surfaced here rather than silently softened. Two shortcuts
follow from it, and both keep the bits of the full loop. An iteration
whose gradient step ``alpha*grad`` is provably below a quarter ulp of
every entry of ``r*v``, by a bound on the gradient that holds for any
batch, cannot change ``v``: it skips both matrix products and the loss
derivative but still draws its batch. At the defaults that is every
iteration after the first 35 to 40 or so. Once the rate is 0.0 and the
momentum step no longer moves beta, no later iteration can change beta,
so the loop returns there (after iteration 122 at the defaults);
``iterations_run`` still records ``max_iters``, and the model and its
file are the same as after the full loop.

:func:`fit_columns` runs the same loop for many models at once, the
columns of an n-by-B beta that share everything but C and the loss
parameters. A single model is a batch of one: :func:`fit` goes through
the same training body and only wraps its one column as a
:class:`TrainedModel`. Gram matrices are plain read-only n-by-n arrays
(:func:`kernel.gram_matrix`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from itertools import pairwise

import numpy as np

from .data import check_layout, dump_json, from_doc, layout, parse_json, to_doc
from .errors import CapacityError, DataFormatError, NumericError, ParameterError, ShapeError
from .kernel import KernelSpec, gram_matrix, kernel_product, row_product
from .loss import PARAMETERS, LossSpec, loss_derivative, loss_derivative_bound, loss_value

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for one training run.

    Defaults are the reference constants: ``beta0 = v0 = 0.01``,
    ``alpha0 = eta = 0.1``, momentum ``r = 0.6``, 1000 iterations, and a
    batch size resolved at fit time to 4 when n < 100 and 32 otherwise.
    ``C``, ``alpha0``, ``eta``, ``beta0`` and ``v0`` must be finite.

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
        for name in ("C", "alpha0", "eta", "beta0", "v0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} must be finite, got {name}={getattr(self, name)}")
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
class FlatParameter:
    """One flat parameter key: the ``TrainerConfig`` field it sets, the
    field of that spec it sets when the config field is a spec (else
    None), its default in ``TrainerConfig()``, its type, and for an enum
    kind the values it may take."""

    field: str
    spec: str | None
    default: object
    type: type
    choices: tuple[str, ...] | None


def _flat_parameters():
    config = TrainerConfig()
    for name, schema in layout(TrainerConfig).items():
        for spec, item in schema.items() if isinstance(schema, dict) else [(None, schema)]:
            default = getattr(config, name) if spec is None else getattr(getattr(config, name), spec)
            choices = tuple(member.value for member in type(default)) if isinstance(default, enum.Enum) else None
            scalar = item[0] if isinstance(item, tuple) else item  # X for X | None
            yield name if spec in (None, "kind") else spec, FlatParameter(
                name, spec, default.value if choices else default, scalar, choices)


# The flat parameter view, derived from the declarations of TrainerConfig,
# LossSpec and KernelSpec, in their field order: a config field is keyed by
# its name, except that a spec (the loss, the kernel) has one key per field,
# its kind keyed by the config field's name and the others by their own.
FLAT_PARAMETERS = dict(_flat_parameters())
# The config fields that hold a spec, in field order.
_SPECS = dict.fromkeys(p.field for p in FLAT_PARAMETERS.values() if p.spec is not None)


def apply_params(config: TrainerConfig, params: dict) -> TrainerConfig:
    """``config`` with the flat ``params`` set, the one map from the keys
    of :data:`FLAT_PARAMETERS` to fields: ``loss`` and the other
    ``LossSpec`` field names set the loss, ``kernel`` and the other
    ``KernelSpec`` field names the kernel, and every other key (``C``,
    ``beta0``, ``max_iters``, ...) the config field of its name. A value
    may be an array where the field takes one value per column. The loss
    is built and checked first, then the kernel, then the config, so of
    several invalid values the first in that order is reported.
    """
    specs = {name: replace(getattr(config, name), **{p.spec: params[key] for key, p in FLAT_PARAMETERS.items()
                                                      if p.field == name and key in params}) for name in _SPECS}
    return replace(config, **specs, **{k: v for k, v in params.items() if FLAT_PARAMETERS[k].spec is None})


@dataclass(frozen=True)
class TrainedModel:
    """A trained model: ``beta`` over the support points, the configuration
    it was trained with (batch size resolved), its final objective and,
    when the features were scaled, the scaler to apply to queries.

    The model checks itself, whether it comes from :func:`fit`, from
    :func:`load_model` or from ``replace``: the support points are a
    non-empty n-by-m matrix, there is one coefficient per support point,
    the scaler is None or one (min, max) pair per feature, and beta, the
    support points, the scaler and the final objective are finite. Beta
    and the support points are held as read-only copies and the scaler as
    a tuple of float pairs. The kernel and the iteration count are the
    configuration's.
    """

    beta: np.ndarray
    support_points: np.ndarray
    config_snapshot: TrainerConfig
    final_objective: float
    scaler: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        pts = np.array(self.support_points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ShapeError("support points must be a non-empty n-by-m matrix", pts.shape)
        if beta.shape != (len(pts),):
            raise ShapeError("one coefficient per support point", beta.shape, pts.shape)
        scaler = self.scaler
        if scaler is not None:
            scaler = tuple(tuple(float(v) for v in pair) for pair in scaler)
            if len(scaler) != pts.shape[1] or any(len(pair) != 2 for pair in scaler):
                raise ShapeError(f"the scaler must hold {pts.shape[1]} (min, max) pairs, one per feature")
        finite = all(np.isfinite(v).all() for v in (beta, pts, *(scaler or ())))
        if not (finite and math.isfinite(self.final_objective)):
            raise ParameterError("model coefficients, support points, scaler or final objective contain NaN or Inf")
        beta.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "support_points", pts)
        object.__setattr__(self, "scaler", scaler)

    @property
    def kernel(self) -> KernelSpec:
        return self.config_snapshot.kernel

    @property
    def iterations_run(self) -> int:
        """``max_iters``: an early return gives the bits of the full loop."""
        return self.config_snapshot.max_iters


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
    kb = row_product(K, beta)
    if beta.ndim == 1:
        xi = 1.0 - y * kb
        return float(0.5 * (beta @ kb) + (config.C / n) * np.sum(loss_value(config.loss, xi)))
    xi = 1.0 - y[:, None] * kb
    quad = np.einsum("ij,ij->j", beta, kb)
    return 0.5 * quad + (config.C / n) * np.sum(loss_value(config.loss, xi), axis=0)


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


# Gradients are kept below this bound wherever the loop skips them; it leaves
# a factor of 2**24 below the float64 maximum for rounding in any order.
_SAFE_GRADIENT = 2.0**1000


def _gradient_bound(beta: np.ndarray, k_max: float, loss_term: float, batch_sum: float) -> float:
    """A bound ``g`` on ``|grad|`` at ``beta`` in every column and for every
    batch, or inf where that gradient might not be finite.

    ``|K beta| <= n*k_max*max|beta|`` with ``k_max >= max|K|``. The loss
    term is at most ``batch_sum = n*k_max*d`` before its scaling by
    ``C/s`` and ``loss_term = k_max*C*d`` after, with ``d >= max|L'|``,
    both largest over the columns. So ``g = n*k_max*max|beta| +
    loss_term`` bounds ``|grad|`` up to a relative rounding error far
    below 1. The loop raises ``NumericError`` on a non-finite gradient,
    so ``g`` is inf unless it and ``batch_sum`` stay below
    ``_SAFE_GRADIENT``.
    """
    g = k_max * len(beta) * np.abs(beta).max() + loss_term
    return g if g + batch_sum < _SAFE_GRADIENT else math.inf


def _frozen(config: TrainerConfig, beta: np.ndarray, v: np.ndarray, bounds: tuple) -> bool:
    """Whether iterations at learning rate 0.0 can neither change beta nor
    raise, for every column of ``beta``.

    At rate 0.0 the update ``v <- r*v - 0.0*grad`` has the magnitude of
    ``r*v`` and only the sign of a zero can differ, so the steps only
    shrink. Once ``beta + r*v == beta`` every later step is absorbed as
    well, because rounding is monotone. A -0.0 in beta is excluded, since
    adding +0.0 turns it into +0.0. The full loop would still raise
    ``NumericError`` on a non-finite gradient, so every later gradient,
    whatever its batch, must also have a finite :func:`_gradient_bound`
    from ``bounds = (k_max, loss_term, batch_sum)``.
    """
    if np.any(np.signbit(beta) & (beta == 0.0)) or not np.array_equal(beta + config.r * v, beta):
        return False
    return _gradient_bound(beta, *bounds) < math.inf


def _step_absorbed(alpha: float, beta_look: np.ndarray, rv_min: float, bounds: tuple) -> bool:
    """Whether ``r*v - alpha*grad`` rounds to ``r*v`` in every entry, for
    the gradient at ``beta_look`` of any batch, and that gradient is finite.

    ``fl(rv - a) == rv`` when ``|a|`` is below half the gap between
    ``rv`` and either neighbour. ``spacing(|rv|)/4`` is at most that, and
    ``spacing`` grows with ``|rv|``, so the smallest ``|r*v|``,
    ``rv_min``, decides it; rounding is monotone, so that is ``r`` times
    the smallest ``|v|``. The test ``2*alpha*g < spacing/4``, with ``g``
    from :func:`_gradient_bound`, leaves a factor 2 for the rounding of
    the gradient, of ``g`` and of ``alpha*grad``. A zero in ``r*v`` never
    passes, even at rate 0.0: ``spacing(0)/4`` rounds to 0.0, and
    ``-0.0 - 0.0*grad`` is +0.0 for a negative gradient. ``bounds`` is
    ``(k_max, loss_term, batch_sum)``; the loss term alone is tested
    first, since it fails while the rate is large, before any pass over
    ``beta_look``.
    """
    loss_term = bounds[1]
    quarter = np.spacing(rv_min) / 4
    return bool(2.0 * alpha * loss_term < quarter and 2.0 * alpha * _gradient_bound(beta_look, *bounds) < quarter)


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
    parameters broadcast over the columns. An iteration whose gradient
    step cannot change any bit of ``v`` (see :func:`_step_absorbed`)
    skips the products and the loss derivative and sets ``v = r*v``,
    which is what they would give; it still draws its batch, so later
    iterations draw the same ones. Returns once the rate is 0.0 and every
    column is frozen (see :func:`_frozen`).
    """
    n = len(y)
    scale = config.C / s
    beta = np.full((n, 1 if config.columns is None else config.columns), config.beta0, dtype=float)
    v = np.full(beta.shape, config.v0, dtype=float)
    yc = y[:, None]
    rng = np.random.default_rng(config.seed)

    # overflow is detected explicitly and reported as a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        # (k_max, loss_term, batch_sum) of _gradient_bound, once per fit
        k_max = max(K.max(), -K.min(), 1.0)
        d_max = loss_derivative_bound(config.loss)
        bounds = (k_max, k_max * float(np.max(config.C * d_max)), k_max * n * float(np.max(d_max)))
        rates = pairwise(learning_rate_sequence(config.alpha0, config.eta, config.max_iters + 1))
        for t, (alpha, next_alpha) in enumerate(rates, start=1):
            batch = rng.choice(n, size=s, replace=False)
            beta_look = beta + config.r * v
            if _step_absorbed(alpha, beta_look, config.r * np.abs(v).min(), bounds):
                v = config.r * v
            else:
                kb = row_product(K, beta_look)
                yb = yc[batch]
                xi = 1.0 - yb * kb[batch]
                w = loss_derivative(config.loss, xi) * yb
                grad = kb - scale * (K[batch].T @ w)
                if not np.isfinite(grad).all():
                    which = _candidate(config, np.isfinite(grad).all(axis=0))
                    raise NumericError(f"non-finite gradient at iteration {t}{which}")
                v = config.r * v - alpha * grad
            beta = beta_look + v
            if next_alpha == 0.0 and _frozen(config, beta, v, bounds):
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

    Iterations whose gradient step cannot change a bit of the velocity
    skip the matrix products (see :func:`_step_absorbed`), and the loop
    returns early once the learning rate is exactly 0.0 and beta can no
    longer move (see :func:`_frozen`): the result is bit-identical to
    running every product of all ``max_iters`` iterations, including a
    ``NumericError`` at the iteration where that loop raises it, and
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
        config_snapshot=replace(config, batch_size=s),
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

    This is :func:`~satsvm.kernel.kernel_product`, the kernel values
    times ``beta`` one block of query rows at a time through the package's
    one kernel loop, so the query-by-support matrix is never held whole.
    """
    X = np.asarray(X, dtype=float)
    S = model.support_points
    if X.ndim != 2 or X.shape[1] != S.shape[1]:
        raise ShapeError("query dimension must match support points", X.shape, S.shape)
    return kernel_product(model.kernel, S, X, model.beta)


def sign_labels(values) -> np.ndarray:
    """Class labels from decision values; a zero value maps to +1."""
    return np.where(np.asarray(values) >= 0.0, 1.0, -1.0)


def save_model(model: TrainedModel) -> str:
    """Canonical JSON text for a trained model.

    Floats are emitted at full round-trip precision, so equal models
    serialize to identical bytes. The ``kernel`` and ``iterations_run``
    keys repeat the configuration's kernel and ``max_iters``.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": to_doc(model.kernel),
        "beta": model.beta.tolist(),
        "support_points": model.support_points.tolist(),
        "config": to_doc(model.config_snapshot),
        "iterations_run": model.iterations_run,
        "final_objective": model.final_objective,
        "scaler": to_doc(model.scaler),
    }
    return dump_json(doc)


# The layout of a model file, in the terms of :func:`data.check_layout`.
_MODEL_DOC = {"format_version": int, "kernel": layout(KernelSpec), "beta": [float],
              "support_points": [[float]], "iterations_run": int, "final_objective": float,
              "scaler": ([[float]],), "config": layout(TrainerConfig)}


def load_model(text: str) -> TrainedModel:
    """Parse a model file written by :func:`save_model`.

    The file must fit the model layout and format version, and the model
    it holds must pass :class:`TrainedModel`'s own checks, with its
    ``kernel`` and ``iterations_run`` keys equal to the configuration's;
    a malformed file raises ``DataFormatError``.
    """
    doc = parse_json(text, "model file")
    check_layout(doc, _MODEL_DOC, "model")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise DataFormatError(f"unsupported model format version {doc['format_version']}")
    try:
        model = TrainedModel(beta=doc["beta"], support_points=doc["support_points"],
                             config_snapshot=from_doc(TrainerConfig, doc["config"]),
                             final_objective=doc["final_objective"], scaler=doc["scaler"])
    except (ValueError, OverflowError) as exc:  # an integer past the float range overflows
        raise DataFormatError(f"invalid model: {exc}") from None
    if doc["kernel"] != to_doc(model.kernel):
        raise DataFormatError(f"model kernel {doc['kernel']} != config.kernel {doc['config']['kernel']}")
    if doc["iterations_run"] != model.iterations_run:
        raise DataFormatError(f"model iterations_run {doc['iterations_run']} != config.max_iters "
                              f"{model.iterations_run}")
    return model
