import math

import numpy as np
import pytest

from satsvm import (
    DegenerateStatisticError,
    ParameterError,
    RankTable,
    f_critical,
    friedman_F,
    friedman_chi2,
    friedman_nemenyi,
    nemenyi_cd,
    nemenyi_report,
    rank_models,
)

# published benchmark fixtures: six models compared over D datasets.
# order: hinge, pinball, linex, qtself, wave, saturating (proposed).
D1 = dict(ranks=(3.35, 2.96, 3.96, 4.45, 4.12, 2.16), D=79,
          chi2=81.442, ff=20.26, fcrit=2.24, cd=0.85,
          sig=(True, False, True, True, True))
EEG = dict(ranks=(3.86, 3.63, 3.31, 6.0, 3.14, 1.06), D=32,
           chi2=114.43, ff=77.844, fcrit=2.27, cd=1.33,
           sig=(True, True, True, True, True))
BHIS = dict(ranks=(4.22, 3.47, 3.72, 4.59, 3.63, 1.38), D=16,
            chi2=28.969, ff=8.515, fcrit=2.35, cd=1.88,
            sig=(True, True, True, True, True))


def _oracle_ranks(row):
    """Independent average-rank oracle: explicit sort and tie groups."""
    order = sorted(range(len(row)), key=lambda i: -row[i])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


class TestRankModels:
    def test_simple_row(self):
        t = rank_models(np.array([[90.0, 80.0, 70.0]]))
        assert (t.ranks[0] == np.array([1.0, 2.0, 3.0])).all()

    def test_tied_row(self):
        t = rank_models(np.array([[90.0, 90.0, 70.0]]))
        assert (t.ranks[0] == np.array([1.5, 1.5, 3.0])).all()

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(17)
        acc = np.round(rng.uniform(50, 100, size=(12, 5)), 1)
        acc[3, 1] = acc[3, 4]  # force a tie
        t = rank_models(acc)
        for d in range(12):
            assert t.ranks[d] == pytest.approx(_oracle_ranks(list(acc[d])))
        assert t.mean_ranks == pytest.approx(t.ranks.mean(axis=0))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [2, 3, 6, 10])
    def test_heavy_ties_match_oracle(self, seed, p):
        rng = np.random.default_rng(seed * 100 + p)
        acc = rng.integers(0, 3, size=(15, p)).astype(float)
        acc[0] = 7.0  # all models tied
        acc[1] = -0.0
        acc[1, 0] = 0.0  # signed zeros compare equal
        t = rank_models(acc)
        for d in range(acc.shape[0]):
            assert t.ranks[d].tolist() == _oracle_ranks(list(acc[d]))
        assert t.ranks[0].tolist() == [(p + 1) / 2.0] * p

    def test_nan_accuracy_rejected(self):
        with pytest.raises(ParameterError, match="NaN"):
            rank_models(np.array([[90.0, np.nan, 70.0]]))

    def test_row_sums_invariant_under_ties(self):
        acc = np.array([[80.0, 80.0, 80.0, 60.0], [70.0, 90.0, 90.0, 90.0]])
        t = rank_models(acc)
        p = t.p
        assert t.ranks.sum(axis=1) == pytest.approx([p * (p + 1) / 2] * t.D)

    def test_chi2_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        acc = rng.uniform(0, 100, size=(9, 4))
        t1 = rank_models(acc)
        t2 = rank_models(np.exp(acc / 25.0))
        assert friedman_chi2(t1) == friedman_chi2(t2)


class TestFriedman:
    @pytest.mark.parametrize("fix", [D1, EEG, BHIS], ids=["d1", "eeg", "bhis"])
    def test_published_chi2_and_ff(self, fix):
        table = RankTable.from_mean_ranks(fix["ranks"], D=fix["D"])
        chi2 = friedman_chi2(table)
        assert chi2 == pytest.approx(fix["chi2"], abs=0.05)
        assert friedman_F(chi2, fix["D"], 6) == pytest.approx(fix["ff"], abs=0.01)

    def test_null_hypothesis_gives_zero(self):
        p = 6
        table = RankTable.from_mean_ranks([(p + 1) / 2.0] * p, D=20)
        assert friedman_chi2(table) == pytest.approx(0.0, abs=1e-12)

    def test_two_model_hand_case(self):
        # p=2, D=1, ranks (1, 2): chi2 = (12/ (2*3)) * (5 - 2*9/4) = 1
        table = RankTable.from_mean_ranks([1.0, 2.0], D=1)
        assert friedman_chi2(table) == pytest.approx(2.0 * (5.0 - 4.5), abs=1e-12)

    def test_ff_zero_chi2(self):
        assert friedman_F(0.0, 10, 6) == 0.0

    def test_ff_degenerate_denominator(self):
        with pytest.raises(DegenerateStatisticError):
            friedman_F(50.0, 10, 6)  # D*(p-1) = 50

    def test_composite_consistency(self):
        table = RankTable.from_mean_ranks(D1["ranks"], D=D1["D"])
        chi2 = friedman_chi2(table)
        direct = (table.D - 1) * chi2 / (table.D * (table.p - 1) - chi2)
        assert friedman_F(chi2, table.D, table.p) == pytest.approx(direct, rel=1e-12)


class TestNemenyi:
    @pytest.mark.parametrize("fix", [D1, EEG, BHIS], ids=["d1", "eeg", "bhis"])
    def test_published_cd(self, fix):
        assert nemenyi_cd(6, fix["D"]) == pytest.approx(fix["cd"], abs=0.005)

    @pytest.mark.parametrize("fix", [D1, EEG, BHIS], ids=["d1", "eeg", "bhis"])
    def test_published_significance_flags(self, fix):
        table = RankTable.from_mean_ranks(fix["ranks"], D=fix["D"])
        cd = nemenyi_cd(6, fix["D"])
        diffs, sig = nemenyi_report(table, cd)
        proposed = 5  # last column is the proposed model (lowest mean rank)
        assert tuple(sig[:proposed, proposed]) == fix["sig"]
        baseline_diffs = [round(float(d), 2) for d in diffs[:proposed, proposed]]
        expected = [round(r - fix["ranks"][proposed], 2) for r in fix["ranks"][:proposed]]
        assert baseline_diffs == pytest.approx(expected, abs=0.01)

    def test_identical_ranks_nothing_significant(self):
        table = RankTable.from_mean_ranks([2.0, 2.0, 2.0], D=10)
        _, sig = nemenyi_report(table, nemenyi_cd(3, 10))
        assert not sig.any()

    def test_gap_exactly_cd_not_significant(self):
        cd = nemenyi_cd(2, 10)
        table = RankTable.from_mean_ranks([1.0, 1.0 + cd], D=10)
        _, sig = nemenyi_report(table, cd)
        assert not sig.any()

    def test_unsupported_pairs(self):
        with pytest.raises(ParameterError):
            nemenyi_cd(11, 10)


class TestFCritical:
    def test_builtin_values(self):
        assert f_critical(6, 79) == 2.24
        assert f_critical(6, 32) == 2.27
        assert f_critical(6, 16) == 2.35

    def test_unknown_shape_requires_caller_value(self):
        with pytest.raises(ParameterError, match="supply"):
            f_critical(4, 50)


class TestFullPipeline:
    @pytest.mark.parametrize("fix", [D1, EEG, BHIS], ids=["d1", "eeg", "bhis"])
    def test_report(self, fix):
        table = RankTable.from_mean_ranks(fix["ranks"], D=fix["D"])
        report = friedman_nemenyi(table)
        assert report.reject is True
        assert report.critical_F == fix["fcrit"]
        assert report.dof == (5, 5 * (fix["D"] - 1))
        assert report.CD == pytest.approx(fix["cd"], abs=0.005)

    def test_reject_flag_follows_strict_inequality(self):
        table = RankTable.from_mean_ranks([1.9, 2.0, 2.1], D=30)
        chi2 = friedman_chi2(table)
        ff = friedman_F(chi2, 30, 3)
        report = friedman_nemenyi(table, critical_F=ff)  # F_F == critical, strict > fails
        assert report.reject is False

    @pytest.mark.parametrize("critical_F", [math.nan, math.inf, 0.0, -1.0])
    def test_critical_f_must_be_finite_and_positive(self, critical_F):
        table = RankTable.from_mean_ranks([1.9, 2.0, 2.1], D=30)
        with pytest.raises(ParameterError, match="critical_F must be finite and > 0"):
            friedman_nemenyi(table, critical_F=critical_F)
