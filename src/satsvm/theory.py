"""Executable checks of the loss's statistical properties.

Two facts about the saturating loss are exercised numerically rather
than symbolically. First, classification calibration: the minimizer of
the conditional risk

    r(f) = L(1 - f) * P + L(1 + f) * (1 - P),

where P is the conditional probability of the +1 class, shares the sign
of the Bayes rule sign(P - 1/2). The minimizer has no closed form, so
:func:`calibration_check` locates it on a dense grid, the systematic
version of arguing from the risk curve's plot. Second, a generalization
bound: with confidence 1 - eps the gap between expected and empirical
risk of the trained classifier is at most

    4 * lam / sqrt(n * C) + sqrt(8 * ln(1/eps) / n).

The capacity machinery behind that bound is not re-derived or estimated
here; only the final bound value is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .loss import LossSpec, loss_value


# Most points a step grid may hold; 10**7 float64 values take 80 MB per array.
STEP_GRID_CAPACITY = 10**7


def step_grid(lo: float, hi: float, step: float, names=("lo", "hi", "step")) -> np.ndarray:
    """``lo + step * k`` for k = 0, 1, ... through the whole number of steps
    nearest ``hi``. Bad bounds or step raise ``ParameterError`` (naming the
    values by ``names``), too many points ``CapacityError``."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError(f"grid needs finite {names[0]} < {names[1]}, got [{lo}, {hi}]")
    if not (math.isfinite(step) and step > 0):
        raise ParameterError(f"grid step {names[2]} must be finite and > 0, got {step}")
    steps = (hi - lo) / step
    if not steps < STEP_GRID_CAPACITY:
        raise CapacityError(f"a grid over [{lo}, {hi}] in steps of {step} exceeds {STEP_GRID_CAPACITY} points")
    return lo + step * np.arange(int(round(steps)) + 1)


@dataclass(frozen=True)
class ConditionalRiskQuery:
    """A loss, a class-+1 probability, and the f-grid to search."""

    loss: LossSpec
    P: float
    f_lo: float = -3.0
    f_hi: float = 3.0
    f_step: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.P <= 1.0:
            raise ParameterError(f"P must lie in [0, 1], got {self.P}")
        self.grid()  # raises on a bad grid

    def grid(self) -> np.ndarray:
        return step_grid(self.f_lo, self.f_hi, self.f_step, ("f_lo", "f_hi", "f_step"))


@dataclass(frozen=True)
class CalibrationResult:
    f_star: float
    sign_matches_bayes: bool | None
    degenerate: bool


def conditional_risk(q: ConditionalRiskQuery, f):
    """r(f) = L(1-f)*P + L(1+f)*(1-P): a float for a scalar f, as
    :func:`loss.loss_value` gives one, else an array of f's shape."""
    f = np.asarray(f, dtype=float)
    return loss_value(q.loss, 1.0 - f) * q.P + loss_value(q.loss, 1.0 + f) * (1.0 - q.P)


def calibration_check(q: ConditionalRiskQuery) -> CalibrationResult:
    """Grid-minimize the conditional risk and compare the minimizer's
    sign to the Bayes sign. Ties resolve toward smallest |f|; P = 1/2 is
    flagged degenerate and asserts nothing."""
    if q.P in (0.0, 1.0):
        raise ParameterError("calibration check needs 0 < P < 1")
    f = q.grid()
    risk = conditional_risk(q, f)
    minimum = risk.min()
    candidates = np.flatnonzero(risk == minimum)
    f_star = float(f[candidates[np.argmin(np.abs(f[candidates]))]])
    if q.P == 0.5:
        return CalibrationResult(f_star=f_star, sign_matches_bayes=None, degenerate=True)
    bayes = 1.0 if q.P > 0.5 else -1.0
    matches = (f_star > 0 and bayes > 0) or (f_star < 0 and bayes < 0)
    return CalibrationResult(f_star=f_star, sign_matches_bayes=matches, degenerate=False)


def generalization_bound(lam: float, n: int, C: float, epsilon: float) -> float:
    """4*lam/sqrt(n*C) + sqrt(8*ln(1/eps)/n), the confidence-(1-eps)
    bound on the expected-minus-empirical risk gap."""
    if not lam > 0:
        raise ParameterError(f"lam must be > 0, got {lam}")
    if not n > 0:
        raise ParameterError(f"n must be > 0, got {n}")
    if not C > 0:
        raise ParameterError(f"C must be > 0, got {C}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    return 4.0 * lam / math.sqrt(n * C) + math.sqrt(8.0 * math.log(1.0 / epsilon) / n)
