"""Margin-loss families: values, chosen (sub)derivatives, and suprema.

All losses are functions of the margin deficit ``u = 1 - y*f(x)``; a
positive ``u`` means the sample violates the unit margin. The headline
family here is ``expsat``, an exponentially saturating loss

    L(u) = lam * (1 - (a*u + 1) * exp(-a*u))   for u > 0,   0 otherwise,

which is zero on the correct side of the margin (sparse), bounded above
by ``lam`` (robust), continuously differentiable everywhere (smooth),
and non-convex. As ``a`` grows with ``lam = 1`` it approaches the 0-1
loss pointwise. The classical hinge, pinball, and truncated variants are
provided for comparison experiments.

For the non-smooth baselines, ``loss_derivative`` returns a fixed
subderivative so training is deterministic: hinge takes 0 at the kink
``u = 0``, pinball and truncated pinball take ``-tau`` there, and
truncated losses take 0 on their plateaus (including the plateau edge).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, check_finite

# exp(-t) underflows well past t = 700; beyond it the (a*u + 1)*exp(-a*u)
# product is defined as exactly 0 so values saturate at lam precisely.
_EXP_CUTOFF = 700.0


class LossKind(str, enum.Enum):
    ZERO_ONE = "zero_one"
    HINGE = "hinge"
    PINBALL = "pinball"
    TRUNCATED_HINGE = "truncated_hinge"
    TRUNCATED_PINBALL = "truncated_pinball"
    EXPSAT = "expsat"


# The LossSpec fields each kind uses.
PARAMETERS = {
    LossKind.ZERO_ONE: (),
    LossKind.HINGE: (),
    LossKind.PINBALL: ("tau",),
    LossKind.TRUNCATED_HINGE: ("delta",),
    LossKind.TRUNCATED_PINBALL: ("tau", "delta1", "delta2"),
    LossKind.EXPSAT: ("a", "lam"),
}


@dataclass(frozen=True)
class LossSpec:
    """A loss family plus its parameters.

    The kind defaults to expsat. Only the parameters relevant to
    ``kind`` (:data:`PARAMETERS`) are range-checked and used: ``a``/``lam``
    (> 0) for expsat, ``tau`` for the pinball family, ``delta`` for the
    truncated hinge, ``tau``/``delta1``/``delta2`` for the truncated
    pinball. Every parameter must be finite, used by the kind or not, so
    that no model file or manifest records a non-finite number. A parameter
    may also be a length-B array, one value per column: the loss
    functions then broadcast it over the last axis of their argument, and
    each column's values are bit-identical to those of the scalar spec
    holding that column's parameters.
    """

    kind: LossKind = LossKind.EXPSAT
    a: float = 1.0
    lam: float = 1.0
    tau: float = 0.5
    delta: float = 1.0
    delta1: float = 1.0
    delta2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", LossKind(self.kind))
        k = self.kind
        if k is LossKind.EXPSAT:
            if not np.all(np.greater(self.a, 0)):
                raise ParameterError(f"expsat requires shape parameter a > 0, got a={self.a}")
            if not np.all(np.greater(self.lam, 0)):
                raise ParameterError(f"expsat requires bound parameter lam > 0, got lam={self.lam}")
        if k in (LossKind.PINBALL, LossKind.TRUNCATED_PINBALL):
            if not np.all(np.greater_equal(self.tau, 0.0) & np.less_equal(self.tau, 1.0)):
                raise ParameterError(f"pinball slope tau must lie in [0, 1], got tau={self.tau}")
        if k is LossKind.TRUNCATED_HINGE and not np.all(np.greater_equal(self.delta, 1.0)):
            raise ParameterError(f"truncated hinge cap delta must be >= 1, got delta={self.delta}")
        if k is LossKind.TRUNCATED_PINBALL:
            if not np.all(np.greater(self.delta1, 0)):
                raise ParameterError(f"truncated pinball cap delta1 must be > 0, got delta1={self.delta1}")
            if not np.all(np.greater(self.delta2, 0)):
                raise ParameterError(f"truncated pinball cap delta2 must be > 0, got delta2={self.delta2}")
        check_finite(self, [f.name for f in fields(self) if f.name != "kind"])

    @classmethod
    def expsat(cls, a: float = 1.0, lam: float = 1.0) -> "LossSpec":
        return cls(LossKind.EXPSAT, a=a, lam=lam)

    @classmethod
    def hinge(cls) -> "LossSpec":
        return cls(LossKind.HINGE)

    @classmethod
    def pinball(cls, tau: float) -> "LossSpec":
        return cls(LossKind.PINBALL, tau=tau)

    @classmethod
    def zero_one(cls) -> "LossSpec":
        return cls(LossKind.ZERO_ONE)

    @classmethod
    def truncated_hinge(cls, delta: float = 1.0) -> "LossSpec":
        return cls(LossKind.TRUNCATED_HINGE, delta=delta)

    @classmethod
    def truncated_pinball(cls, tau: float, delta1: float, delta2: float) -> "LossSpec":
        return cls(LossKind.TRUNCATED_PINBALL, tau=tau, delta1=delta1, delta2=delta2)


def _saturating_from_zero(t):
    """(t + 1) * exp(-t) with the product pinned to 0 for t > cutoff."""
    tc = np.clip(t, -_EXP_CUTOFF, _EXP_CUTOFF)
    return np.where(t > _EXP_CUTOFF, 0.0, (tc + 1.0) * np.exp(-tc))


def loss_value(spec: LossSpec, u):
    """Evaluate the loss at margin deficit ``u`` (scalar or array)."""
    u = np.asarray(u, dtype=float)
    k = spec.kind
    if k is LossKind.ZERO_ONE:
        out = np.where(u > 0, 1.0, 0.0)
    elif k is LossKind.HINGE:
        out = np.maximum(u, 0.0)
    elif k is LossKind.PINBALL:
        out = np.where(u > 0, u, -spec.tau * u)
    elif k is LossKind.TRUNCATED_HINGE:
        # np.clip with per-column bounds would turn u = -0.0 into 0.0
        out = np.where(u < 0.0, 0.0, np.where(u > spec.delta, spec.delta, u))
    elif k is LossKind.TRUNCATED_PINBALL:
        neg = np.where(np.greater(spec.tau, 0), np.minimum(-spec.tau * u, spec.delta2), 0.0)
        out = np.where(u >= 0, np.minimum(u, spec.delta1), neg)
    else:  # expsat
        # a*u past the float range is +inf where u > 0, which saturates the
        # loss; every other overflow falls in the branch np.where discards
        with np.errstate(over="ignore"):
            t = spec.a * u
            out = np.where(u > 0, spec.lam * (1.0 - _saturating_from_zero(t)), 0.0)
    return float(out) if out.ndim == 0 else out


def loss_derivative(spec: LossSpec, u):
    """Derivative of the loss at ``u`` (a fixed subderivative at kinks).

    The expsat family is genuinely differentiable:
    ``L'(u) = lam * a**2 * u * exp(-a*u)`` for ``u > 0`` and 0 for
    ``u <= 0``, continuous at the origin.
    """
    u = np.asarray(u, dtype=float)
    k = spec.kind
    if k is LossKind.ZERO_ONE:
        out = np.zeros_like(u)
    elif k is LossKind.HINGE:
        out = np.where(u > 0, 1.0, 0.0)
    elif k is LossKind.PINBALL:
        out = np.where(u > 0, 1.0, -spec.tau)
    elif k is LossKind.TRUNCATED_HINGE:
        out = np.where((u > 0) & (u < spec.delta), 1.0, 0.0)
    elif k is LossKind.TRUNCATED_PINBALL:
        out = np.where((u > 0) & (u < spec.delta1), 1.0, 0.0)
        tau = np.asarray(spec.tau)
        # -inf where tau = 0, which the mask leaves out, or where the edge
        # lies past the float range, so that every finite u <= 0 is inside it
        with np.errstate(divide="ignore", over="ignore"):
            edge = -spec.delta2 / tau
        out = np.where((tau > 0) & (u <= 0) & (u > edge), -spec.tau, out)
    else:  # expsat
        # as in loss_value; lam*a past the float range gives the limit inf
        # where the mask keeps d, and inf*0 = nan only where u = 0
        with np.errstate(over="ignore", invalid="ignore"):
            t = spec.a * u
            tc = np.clip(t, -_EXP_CUTOFF, _EXP_CUTOFF)
            d = spec.lam * spec.a * tc * np.exp(-tc)
        out = np.where((u > 0) & (t <= _EXP_CUTOFF), d, 0.0)
    return float(out) if out.ndim == 0 else out


def loss_derivative_bound(spec: LossSpec) -> float:
    """Bound on ``|loss_derivative|`` at any finite ``u``.

    Every subderivative is at most 1 in magnitude (``tau <= 1``). For
    expsat the bound also covers the product ``lam * a * t`` that is
    formed before ``exp(-t)`` scales it down, for ``t`` up to the cutoff.
    """
    return _EXP_CUTOFF * spec.lam * spec.a if spec.kind is LossKind.EXPSAT else 1.0


def loss_supremum(spec: LossSpec) -> float:
    """Least upper bound of the loss over all margin deficits.

    Returns ``math.inf`` for the unbounded hinge and pinball families.
    """
    k = spec.kind
    if k is LossKind.ZERO_ONE:
        return 1.0
    if k in (LossKind.HINGE, LossKind.PINBALL):
        return math.inf
    if k is LossKind.TRUNCATED_HINGE:
        return spec.delta
    if k is LossKind.TRUNCATED_PINBALL:
        return max(spec.delta1, spec.delta2) if spec.tau > 0 else spec.delta1
    return spec.lam
