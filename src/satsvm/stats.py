"""Nonparametric comparison of models over many datasets.

Each model is ranked per dataset (rank 1 best, ties averaged). The
Friedman statistic

    chi2_F = 12*D / (p*(p+1)) * [sum_e R_e**2 - p*(p+1)**2 / 4]

tests whether the p mean ranks R_e over D datasets could all be equal;
the Iman-Davenport correction

    F_F = (D-1) * chi2_F / (D*(p-1) - chi2_F)

is the less conservative statistic, compared against the F distribution
with ((p-1), (p-1)*(D-1)) degrees of freedom. After a rejection, the
Nemenyi critical difference CD = q_alpha * sqrt(p*(p+1) / (6*D)) decides
pairwise significance: two models differ when their mean ranks are
strictly more than CD apart.

F critical values are caller-supplied (read from a table, as usual for
this test); a tiny built-in table covers three common (p, D) cases at
the 5% level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStatisticError, ParameterError, ShapeError

# two-tailed Nemenyi critical values at alpha = 0.05: the upper 5% point
# of the studentized range (k groups, infinite df) divided by sqrt(2)
_Q_05 = {
    2: 1.959964,
    3: 2.343701,
    4: 2.569032,
    5: 2.727774,
    6: 2.849705,
    7: 2.948320,
    8: 3.030878,
    9: 3.101730,
    10: 3.163684,
}

# F((p-1), (p-1)(D-1)) at alpha = 0.05 for the benchmark shapes used here
_F_CRIT_05 = {
    (6, 79): 2.24,
    (6, 32): 2.27,
    (6, 16): 2.35,
}


@dataclass(frozen=True)
class RankTable:
    """Per-dataset ranks and their means; ``mean_ranks`` is length p.

    ``ranks`` is absent when the table was built directly from published
    mean ranks.
    """

    D: int
    p: int
    mean_ranks: np.ndarray
    ranks: np.ndarray | None = None
    models: tuple[str, ...] | None = None

    @classmethod
    def from_mean_ranks(cls, mean_ranks, D: int, models=None) -> "RankTable":
        mr = np.asarray(mean_ranks, dtype=float)
        if mr.ndim != 1 or mr.size < 2:
            raise ShapeError("mean ranks must be a vector of two or more models", mr.shape)
        if not 1 <= D <= sys.float_info.max:  # the statistics take D as a float
            raise ParameterError(f"dataset count D must be >= 1, got {D}" if D < 1 else
                                 "dataset count D is past the float range")
        return cls(D=D, p=mr.size, mean_ranks=mr, models=None if models is None else tuple(models))


@dataclass(frozen=True)
class TestReport:
    chi2: float
    F_F: float
    dof: tuple[int, int]
    critical_F: float
    reject: bool
    CD: float
    mean_ranks: np.ndarray
    pairwise_diffs: np.ndarray
    significant: np.ndarray
    models: tuple[str, ...] | None = None


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..p of a vector in ascending order; tied entries share the
    mean of the ranks they span."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((first + last + 1) / 2.0, last - first)
    return ranks


def rank_models(accuracies, models=None) -> RankTable:
    """Rank models per dataset row, highest accuracy first, average ties."""
    acc = np.asarray(accuracies, dtype=float)
    if acc.ndim != 2 or acc.shape[0] < 1 or acc.shape[1] < 2:
        raise ShapeError("accuracies must be a D-by-p matrix with p >= 2", acc.shape)
    if np.isnan(acc).any():
        raise ParameterError("accuracies contain NaN")
    ranks = np.vstack([_average_ranks(-row) for row in acc])
    return RankTable(
        D=acc.shape[0],
        p=acc.shape[1],
        mean_ranks=ranks.mean(axis=0),
        ranks=ranks,
        models=None if models is None else tuple(models),
    )


def friedman_chi2(table: RankTable) -> float:
    D, p = table.D, table.p
    r2 = float(np.sum(table.mean_ranks**2))
    return (12.0 * D / (p * (p + 1))) * (r2 - p * (p + 1) ** 2 / 4.0)


def friedman_F(chi2: float, D: int, p: int) -> float:
    """Iman-Davenport corrected statistic."""
    denom = D * (p - 1) - chi2
    if denom <= 0:
        raise DegenerateStatisticError(
            f"Iman-Davenport denominator D*(p-1) - chi2 = {denom} is not positive"
        )
    return (D - 1) * chi2 / denom


def f_critical(p: int, D: int) -> float:
    """Built-in F critical value lookup at alpha = 0.05 for the shapes this
    package ships fixtures for; anything else must be caller-supplied."""
    if (p, D) in _F_CRIT_05:
        return _F_CRIT_05[(p, D)]
    raise ParameterError(
        f"no built-in F critical value for p={p}, D={D}, alpha=0.05; supply one explicitly"
    )


def check_alpha(level: float) -> None:
    """Raise ``ParameterError`` unless the significance level ``level`` is
    0.05, the one level with built-in Nemenyi critical values."""
    if level != 0.05:
        raise ParameterError(f"alpha must be 0.05, the one level with built-in Nemenyi critical values, got {level!r}")


def nemenyi_cd(p: int, D: int) -> float:
    """The Nemenyi critical difference at alpha = 0.05."""
    if p not in _Q_05:
        raise ParameterError(f"no Nemenyi critical value for p={p}, alpha=0.05")
    if D < 1:
        raise ParameterError(f"dataset count D must be >= 1, got {D}")
    return _Q_05[p] * math.sqrt(p * (p + 1) / (6.0 * D))


def nemenyi_report(table: RankTable, cd: float):
    """Pairwise mean-rank differences and their significance flags.

    Entry (i, j) is |R_i - R_j|; significance requires a strict
    exceedance of the critical difference.
    """
    diffs = np.abs(table.mean_ranks[:, None] - table.mean_ranks[None, :])
    significant = diffs > cd
    np.fill_diagonal(significant, False)
    return diffs, significant


def friedman_nemenyi(table: RankTable, critical_F: float | None = None) -> TestReport:
    """Full pipeline at alpha = 0.05: Friedman chi-squared, Iman-Davenport
    F, rejection decision against ``critical_F``, and the Nemenyi post hoc
    matrix."""
    chi2 = friedman_chi2(table)
    ff = friedman_F(chi2, table.D, table.p)
    if critical_F is None:
        critical_F = f_critical(table.p, table.D)
    elif not (math.isfinite(critical_F) and critical_F > 0):
        raise ParameterError(f"critical_F must be finite and > 0, got {critical_F!r}")
    cd = nemenyi_cd(table.p, table.D)
    diffs, significant = nemenyi_report(table, cd)
    return TestReport(
        chi2=chi2,
        F_F=ff,
        dof=(table.p - 1, (table.p - 1) * (table.D - 1)),
        critical_F=critical_F,
        reject=ff > critical_F,
        CD=cd,
        mean_ranks=table.mean_ranks,
        pairwise_diffs=diffs,
        significant=significant,
        models=table.models,
    )
