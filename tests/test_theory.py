import math

import numpy as np
import pytest

from satsvm import (
    CapacityError,
    ConditionalRiskQuery,
    LossKind,
    LossSpec,
    ParameterError,
    calibration_check,
    conditional_risk,
    generalization_bound,
    loss_value,
)
from satsvm.theory import step_grid

ONE_MINUS_2_OVER_E = 0.26424111765711533


def conditional_risk_branches(q: ConditionalRiskQuery, f):
    """The conditional risk in its three-branch regional form (saturating
    loss only), the oracle of :func:`conditional_risk`.

    With g1 = L(1-f) and g2 = L(1+f) the risk is g1*P for f <= -1,
    (g1 - g2)*P + g2 on (-1, 1), and g2*(1-P) for f >= 1, because one of
    the two losses vanishes outside the unit interval.
    """
    if q.loss.kind is not LossKind.EXPSAT:
        raise ParameterError("the branch decomposition is specific to the saturating loss")
    scalar = np.ndim(f) == 0
    f = np.atleast_1d(np.asarray(f, dtype=float))
    g1 = loss_value(q.loss, 1.0 - f)
    g2 = loss_value(q.loss, 1.0 + f)
    mid = (g1 - g2) * q.P + g2
    out = np.where(f <= -1.0, g1 * q.P, np.where(f >= 1.0, g2 * (1.0 - q.P), mid))
    return float(out[0]) if scalar else out


def _query(a=1.0, lam=1.0, P=0.7, **kw):
    return ConditionalRiskQuery(loss=LossSpec.expsat(a, lam), P=P, **kw)


class TestConditionalRisk:
    def test_symmetric_case(self):
        assert conditional_risk(_query(P=0.5), 0.0) == pytest.approx(ONE_MINUS_2_OVER_E, abs=1e-14)

    def test_branch_boundaries_agree_with_generic(self):
        q = _query(a=1.3, lam=0.8, P=0.35)
        for f in (-1.0, 1.0):
            assert abs(conditional_risk(q, f) - conditional_risk_branches(q, f)) <= 1e-12

    def test_certain_class_vanishes_for_large_f(self):
        q = _query(P=1.0)
        assert conditional_risk(q, 10.0) == 0.0

    def test_branch_equivalence_on_random_pairs(self):
        rng = np.random.default_rng(21)
        P = rng.uniform(0.0, 1.0, size=10_000)
        f = rng.uniform(-4.0, 4.0, size=10_000)
        for a, lam in ((0.5, 1.0), (2.0, 1.5)):
            for Pi, fi in zip(P[:5000] if a == 0.5 else P[5000:], f[:5000] if a == 0.5 else f[5000:]):
                q = _query(a=a, lam=lam, P=float(Pi))
                assert abs(conditional_risk(q, float(fi)) - conditional_risk_branches(q, float(fi))) <= 1e-12

    def test_vectorized_over_f(self):
        q = _query(P=0.6)
        f = np.linspace(-2, 2, 11)
        vec = conditional_risk(q, f)
        assert vec == pytest.approx([conditional_risk(q, float(x)) for x in f], abs=0)

    def test_branches_require_saturating_loss(self):
        q = ConditionalRiskQuery(loss=LossSpec.hinge(), P=0.6)
        with pytest.raises(ParameterError):
            conditional_risk_branches(q, 0.0)


class TestCalibrationCheck:
    def test_positive_bayes_side(self):
        r = calibration_check(_query(P=0.7))
        assert r.f_star > 0 and r.sign_matches_bayes is True and not r.degenerate

    def test_negative_bayes_side(self):
        r = calibration_check(_query(P=0.3))
        assert r.f_star < 0 and r.sign_matches_bayes is True

    def test_half_is_degenerate(self):
        r = calibration_check(_query(P=0.5))
        assert r.degenerate and r.sign_matches_bayes is None

    def test_extreme_p_rejected(self):
        with pytest.raises(ParameterError):
            calibration_check(_query(P=1.0))

    def test_small_sweep(self):
        for a in (0.5, 5.0):
            for lam in (0.5, 2.0):
                for P in (0.1, 0.45, 0.55, 0.9):
                    r = calibration_check(_query(a=a, lam=lam, P=P))
                    assert r.sign_matches_bayes, (a, lam, P)

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            _query(f_lo=1.0, f_hi=-1.0)
        with pytest.raises(ParameterError):
            _query(f_step=0.0)
        with pytest.raises(ParameterError):
            _query(P=1.5)

    def test_step_grid_values_and_limits(self):
        # the closed form the calibration and loss-curve grids have always used
        want = -3.0 + 1e-3 * np.arange(6001)
        assert step_grid(-3.0, 3.0, 1e-3).tobytes() == want.tobytes()
        assert step_grid(-2.0, 3.0, 0.01).tobytes() == (-2.0 + 0.01 * np.arange(501)).tobytes()
        for lo, hi, step in [(0.0, math.inf, 1.0), (math.nan, 1.0, 1.0), (1.0, 1.0, 0.1),
                             (0.0, 1.0, math.inf), (0.0, 1.0, -0.1)]:
            with pytest.raises(ParameterError):
                step_grid(lo, hi, step)
        with pytest.raises(CapacityError):
            step_grid(-1e308, 1e308, 1.0)


class TestGeneralizationBound:
    def test_documented_value(self):
        want = 0.4 + math.sqrt(8.0 * math.log(20.0) / 100.0)
        got = generalization_bound(1.0, 100, 1.0, 0.05)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.8896, abs=5e-4)

    def test_first_term_halves_with_4n(self):
        conf = lambda n: math.sqrt(8.0 * math.log(20.0) / n)
        first_100 = generalization_bound(1.0, 100, 1.0, 0.05) - conf(100)
        first_400 = generalization_bound(1.0, 400, 1.0, 0.05) - conf(400)
        assert first_400 == first_100 / 2.0

    @pytest.mark.parametrize("bad", [dict(lam=0.0), dict(n=0), dict(C=0.0),
                                     dict(epsilon=0.0), dict(epsilon=1.0), dict(epsilon=-0.2)])
    def test_preconditions(self, bad):
        args = dict(lam=1.0, n=100, C=1.0, epsilon=0.05)
        args.update(bad)
        with pytest.raises(ParameterError):
            generalization_bound(args["lam"], args["n"], args["C"], args["epsilon"])
