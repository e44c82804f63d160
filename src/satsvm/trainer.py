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
and is surfaced here rather than silently softened. One shortcut
follows from it and keeps the bits of the full loop. After each
iteration one test tries to prove the whole tail (see
:func:`_absorbed_tail`): that every later gradient step ``alpha*grad``
is below a quarter ulp of every entry of ``r*v``, by a bound on the
gradient that holds for any batch, so cannot change ``v``, and that
every later gradient is finite. It succeeds when every later rate,
walked as the loop computes it, keeps the step below a quarter spacing
of the smallest ``|r*v|`` as that spacing shrinks, by at worst a factor
``2**floor(log2 r)`` a step; when ``r*v`` stays normal while the rate is
nonzero; when the gradient bound, over every point the tail reaches,
stays finite; and when at rate 0.0 beta holds no -0.0. Where it holds
(after iteration 37 at the defaults) the loop returns, after running
the rest as the bare recurrence ``v = r*v; beta = (beta + v) + v`` one
cache-sized tile of rows at a time, each tile until an iteration leaves
it unchanged. Where it fails (r = 0, a zero in v, v heading into the
subnormals, an infinite bound, a rate that has yet to fall far enough)
the loop runs the next iteration in full and tries again.
``iterations_run`` still records ``max_iters``, and the model and its
file are the same as after the full loop.

:func:`fit_columns` runs the same loop for many models at once, the
columns of an n-by-B beta that share everything but C and the loss
parameters, in chunks whose width is a memory decision only. A single
model is a batch of one: :func:`fit` goes through the same training
body and only wraps its one column as a :class:`TrainedModel`. Gram
matrices are plain read-only n-by-n arrays (:func:`kernel.gram_matrix`).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import pairwise

import numpy as np

from .data import check_layout, dump_json, from_doc, layout, parse_json, to_doc
from .errors import DataFormatError, NumericError, ParameterError, ShapeError, check_finite
from .kernel import COLUMN_GROUP, KernelSpec, gram_matrix, kernel_product, row_product
from .loss import PARAMETERS, LossSpec, loss_derivative, loss_derivative_bound, loss_value

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for one training run.

    Defaults are the reference constants: ``beta0 = v0 = 0.01``,
    ``alpha0 = eta = 0.1``, momentum ``r = 0.6``, 1000 iterations, and a
    batch size resolved at fit time to 4 when n < 100 and 32 otherwise.
    ``C``, ``alpha0``, ``eta``, ``beta0`` and ``v0`` must be finite, as
    the loss and the kernel check their own parameters, so that no model
    file or manifest records a non-finite number.

    ``C`` and the loss parameters may also be length-B arrays, one value
    per column: :func:`fit_columns` then trains the B models that share
    every other setting together.
    """

    C: float = 1.0
    loss: LossSpec = field(default_factory=LossSpec)
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
        check_finite(self, ("C", "alpha0", "eta", "beta0", "v0"))
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
    may be an array where the field takes one value per column. Each spec
    and config it builds checks itself, a fold's seed and a chunk's slice
    of the columns included: the loss first, then the kernel, then the
    config, so of several invalid values the first in that order is
    reported.
    """
    specs = {}
    for name in _SPECS:
        changes = {p.spec: params[key] for key, p in FLAT_PARAMETERS.items() if p.field == name and key in params}
        if changes:
            specs[name] = replace(getattr(config, name), **changes)
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
    with ``K`` the n-by-n Gram matrix: a float for a vector ``beta``, and
    for an n-by-B one an array of one value per column, with the column's
    C and loss parameters when ``config`` gives them per column.

    One formula serves both: a vector and an n-by-1 matrix give the same
    bits, as ``K beta`` is one product, ``vecdot`` over axis 0 is ``b'Kb``
    and a sum over axis 0 sums the column as it sums the vector.
    """
    y = _check_labels(y)
    beta = np.asarray(beta, dtype=float)
    n = len(K)
    if beta.shape[:1] != (n,) or beta.ndim > 2 or y.shape != (n,):
        raise ShapeError("beta and y must match the kernel matrix", beta.shape, y.shape, n)
    kb = row_product(K, beta)
    xi = 1.0 - (y * kb.T).T
    value = 0.5 * np.vecdot(beta, kb, axis=0) + (config.C / n) * np.sum(loss_value(config.loss, xi), axis=0)
    return float(value) if value.ndim == 0 else value


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


# Gradients are kept below this bound wherever the tail skips them; it leaves
# a factor of 2**24 below the float64 maximum for rounding in any order.
_SAFE_GRADIENT = 2.0**1000

# Bytes of one row tile of the absorbed tail: a tile of beta, of v and of
# scratch, kept in cache while the tile runs to its last change. On a 2-vCPU
# Xeon (2 MiB of L2 per core), the tail of a 1632-column chunk at n = 320
# took 44 ms at this size, 57 ms at 256 KiB and 63 ms at 2 MiB.
TAIL_BYTES = 1 << 20


def _gradient_bound(top: float, n: int, bounds: tuple) -> float:
    """A bound ``g`` on ``|grad|`` in every column and for every batch at
    any n-by-B beta with ``max|beta| <= top``, or inf where that gradient
    might not be finite.

    ``|K beta| <= n*k_max*max|beta|`` with ``k_max >= max|K|``. The loss
    term is at most ``batch_sum = n*k_max*d`` before its scaling by
    ``C/s`` and ``loss_term = k_max*C*d`` after, with ``d >= max|L'|``,
    both largest over the columns; ``bounds`` is ``(k_max, loss_term,
    batch_sum)``. So ``g = n*k_max*top + loss_term`` bounds ``|grad|`` up
    to a relative rounding error far below 1. The loop raises
    ``NumericError`` on a non-finite gradient, so ``g`` is inf unless it
    and ``batch_sum`` stay below ``_SAFE_GRADIENT``.
    """
    k_max, loss_term, batch_sum = bounds
    g = k_max * n * top + loss_term
    return g if g + batch_sum < _SAFE_GRADIENT else math.inf


def _absorbed_tail(config: TrainerConfig, t: int, alpha: float, beta: np.ndarray, v: np.ndarray,
                   bounds: tuple) -> bool:
    """Whether iterations t+1 to ``max_iters``, the first at rate
    ``alpha``, change beta only as the bare recurrence ``v = r*v;
    beta = (beta + v) + v`` does, for every batch, and raise no
    ``NumericError``; ``beta`` and ``v`` are those after iteration t.

    A step is absorbed when ``fl(r*v - alpha*grad) == r*v``. That holds
    when ``|alpha*grad|`` is below half the gap between ``r*v`` and either
    neighbour, and ``spacing(|r*v|)/4`` is at most that gap; ``spacing``
    grows with ``|r*v|``, so the smallest ``|r*v|`` decides. The test
    ``2*alpha*g < spacing/4``, with ``g`` from :func:`_gradient_bound`,
    leaves a factor 2 for the rounding of the gradient, of ``g`` and of
    ``alpha*grad``. A zero in ``r*v`` never passes: ``spacing(0)/4``
    rounds to 0.0. Along absorbed steps:

    - ``|v|`` only shrinks, keeping its sign, and each addition moves
      beta by at most ``2|v|`` (beta is a float within ``|v|`` of
      ``beta + v``). Scaled by ``r`` with a rounding error of at most
      ``2**-53`` relative, a normal ``|v|`` sums to at most
      ``q/(1 - q)`` times its start, ``q = r + 2**-52``; so every later
      look-ahead point stays within ``reach = max|beta| + 4 max|v|
      q/(1 - q)``, and every later gradient below the ``g`` of ``reach``.
      (A subnormal ``|v|``, only possible at rate 0.0, adds at most
      ``2**-1074`` a step, far inside the margin of ``_SAFE_GRADIENT``.)
    - ``r*x >= rho*x`` with ``rho = 2**floor(log2 r)``, which scales
      exactly, so the spacing of the smallest ``|r*v|`` falls by at most
      ``rho`` per step. The rates are walked as the loop computes them;
      each must pass the test against that falling spacing, which fails
      once it would reach the subnormals.
    - At rate 0.0 ``r*v - 0.0*grad`` is ``r*v`` but for the sign of a
      zero. Adding a zero of either sign leaves beta's bits unless beta
      is -0.0, and a sum is -0.0 only when both terms are, so a beta free
      of -0.0 keeps the recurrence's bits. When the rate is 0.0 from
      iteration t+1 on, beta must hold no -0.0; when it is not, the first
      step adds a nonzero ``v`` to every entry, which leaves no -0.0.

    The tail then follows the recurrence, and since rounding is monotone,
    an iteration that leaves a row tile's bits unchanged leaves them so
    for good (:func:`_run_tail`). Where this fails (r = 0, a zero in v, v
    heading into the subnormals, an infinite bound, a rate that some step
    has not yet brought below the falling spacing), the loop runs the next
    iteration in full and tests again after it. A failed test reads only
    ``min|v|`` until the first step passes on the loss term alone.
    """
    r, eta = config.r, config.eta
    rho = math.ldexp(0.5, math.frexp(r)[1])  # 2**floor(log2 r) for 0 < r < 1
    if alpha > 0.0:
        lower = np.spacing(r * np.abs(v).min())  # spacing of the smallest |r*v| at iteration t+1
        if not 2.0 * alpha * bounds[1] < lower / 4:
            return False  # the first step fails on the loss term alone, as g >= loss_term
    elif np.any(np.signbit(beta) & (beta == 0.0)):
        return False
    q = r + 2.0**-52
    reach = np.abs(beta).max() + 4.0 * np.abs(v).max() * (q / (1.0 - q) if q < 1.0 else math.inf)
    g = _gradient_bound(reach, len(beta), bounds)
    for u in range(t + 1, config.max_iters + 1):
        if alpha == 0.0:
            break
        if not 2.0 * alpha * g < lower / 4:
            return False
        alpha *= math.exp(-eta * u)
        lower *= rho
    return bool(g < math.inf)


def _run_tail(beta: np.ndarray, v: np.ndarray, r: float, steps: int) -> np.ndarray:
    """``beta`` after up to ``steps`` iterations of ``v = r*v;
    beta = (beta + v) + v``, in place, one tile of ``TAIL_BYTES`` at a
    time; a tile stops at the first iteration that leaves its bits
    unchanged, since every later one would (see :func:`_absorbed_tail`).
    """
    rows = max(1, TAIL_BYTES // (24 * beta.shape[1]))
    for lo in range(0, len(beta), rows):
        b, w = beta[lo : lo + rows], v[lo : lo + rows]
        cur, new = b, np.empty_like(b)
        for _ in range(steps):
            np.multiply(r, w, out=w)
            np.add(cur, w, out=new)
            np.add(new, w, out=new)
            if np.array_equal(new.view(np.int64), cur.view(np.int64)):
                break
            cur, new = new, cur
        b[...] = cur
    return beta


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
    parameters broadcast over the columns. After each iteration, once
    every later step is proven absorbed (see :func:`_absorbed_tail`),
    returns beta after the rest of the iterations as the bare recurrence
    (:func:`_run_tail`).
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
            if _absorbed_tail(config, t, next_alpha, beta, v, bounds):
                return _run_tail(beta, v, config.r, config.max_iters - t)
    return beta


# Largest n-by-B coefficient matrix that fit_columns trains at once; the
# loop holds a few more of that size. Wider batches train in chunks.
COLUMN_BYTES = 1 << 22


def _train(config: TrainerConfig, K: np.ndarray, y: np.ndarray, s: int):
    """The NAG loop over prepared data; the n-by-B betas and their B final
    objectives, after raising ``NumericError`` for a non-finite one with
    the failing column's parameters. A plain config trains one column,
    whose objective has the bits of its beta as a vector (see
    :func:`objective`).
    """
    beta = _nag(config, K, y, s)
    with np.errstate(over="ignore", invalid="ignore"):
        final = objective(config, K, y, beta)
    ok = np.isfinite(final)
    if not ok.all():
        j = int(np.argmin(ok))
        raise NumericError(f"non-finite final objective {float(final[j])!r}{_candidate(config, ok)}")
    return beta, final


def fit(config: TrainerConfig, X, y, gram: np.ndarray | None = None) -> TrainedModel:
    """Train by mini-batch NAG for up to ``max_iters`` iterations.

    Once no later gradient step can change a bit of the velocity, which
    is proven for all of them at once (see :func:`_absorbed_tail`), the
    loop runs the rest as a bare recurrence: the result is bit-identical to
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
    X, y, gram, s = _prepare(config, X, y, gram)
    beta, final = _train(config, gram, y, s)
    return TrainedModel(
        beta=beta[:, 0],
        support_points=X,
        config_snapshot=replace(config, batch_size=s),
        final_objective=float(final[0]),
    )


def fit_columns(config: TrainerConfig, X, y, gram: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """Train every column of ``config`` (one for a plain config) by the
    NAG loop of :func:`fit`; yields ``(cols, beta)`` one chunk at a time,
    in column order, with ``beta`` the n-by-len(cols) betas of the
    columns in the slice ``cols``.

    The columns of a chunk train together in one loop, and a chunk trains
    when the caller asks for it, so memory is bounded by one chunk. A
    batch of up to ``COLUMN_GROUP`` columns is one chunk. A wider one is
    split into chunks of whole multiples of ``COLUMN_GROUP`` columns, as
    many as ``COLUMN_BYTES`` of coefficients holds at this training size,
    and a chunk of its last B mod ``COLUMN_GROUP`` columns, so a column's
    bits do not depend on the chunk width. The call itself checks the
    data, and builds the Gram when ``gram`` is None, before any chunk
    trains. A ``NumericError`` names the failing column's parameters.

    Column j is what :func:`fit` would train for the config holding
    column j's C and loss parameters, up to rounding: the matrix products
    sum in another order, so ``K beta``, and a decision value with
    ``K(x_j, x)`` for ``K_kj``, differs by at most
    ``1e-12 * sum_j |K_kj| * m_j``, with ``m_j`` the largest ``|beta_j|``
    of the run. On typical data that is the final ``|beta_j|``: the
    largest drift of a decision value measured on two-cluster data at
    n = 320 was 1.8e-14 * sum_j |beta_j K(x_j, x)|, and grid winners and
    accuracies on the test data were unchanged. One column is
    bit-identical to :func:`fit`.
    """
    _, y, gram, s = _prepare(config, X, y, gram)
    B = config.columns or 1
    step = COLUMN_GROUP * max(1, COLUMN_BYTES // (8 * COLUMN_GROUP * len(y)))
    body = B if B <= COLUMN_GROUP else B - B % COLUMN_GROUP
    chunks = [slice(lo, hi) for lo, hi in pairwise(sorted({*range(0, body, step), body, B}))]

    def train(cols: slice) -> np.ndarray:
        chunk = apply_params(config, {name: v[cols] for name, v in config.column_parameters() if np.ndim(v)})
        return _train(chunk, gram, y, s)[0]

    return ((cols, train(cols)) for cols in chunks)


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


def accuracy(predictions, truth) -> float | np.ndarray:
    """Percent of predictions matching the n labels ``truth``, all in
    {-1, +1}: a float for an n-vector of predictions, and one value per
    column for an n-by-B matrix of them. A mean of 0/1 values is exact, so
    a column scores the bits of its vector."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape[:1] != t.shape or t.ndim != 1 or p.ndim > 2:
        raise ShapeError("predictions must be a vector or matrix with one row per truth label", p.shape, t.shape)
    if p.size == 0:
        raise ParameterError("accuracy of an empty prediction set is undefined")
    if not (np.isin(p, (-1.0, 1.0)).all() and np.isin(t, (-1.0, 1.0)).all()):
        raise ParameterError("predictions and truth must be -1 or +1")
    out = 100.0 * np.mean(p.T == t, axis=-1)
    return float(out) if out.ndim == 0 else out


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
