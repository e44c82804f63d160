import math
import warnings

import numpy as np
import pytest

from satsvm import LossKind, LossSpec, ParameterError, loss_derivative, loss_supremum, loss_value
from satsvm.loss import PARAMETERS, loss_derivative_bound

# frozen oracles: 1 - 2/e and 1/e evaluated with 50-digit arithmetic
ONE_MINUS_2_OVER_E = 0.26424111765711533
ONE_OVER_E = 0.36787944117144233

PARAM_GRID = [(a, lam) for a in (0.5, 1.0, 5.0) for lam in (0.5, 1.0, 2.0)]


class TestValues:
    def test_expsat_boundary_and_unit(self):
        spec = LossSpec.expsat(1.0, 1.0)
        assert loss_value(spec, 0.0) == 0.0
        assert loss_value(spec, -3.0) == 0.0
        assert loss_value(spec, 1.0) == pytest.approx(ONE_MINUS_2_OVER_E, abs=1e-15)

    def test_hinge_piecewise(self):
        spec = LossSpec.hinge()
        assert loss_value(spec, -3.0) == 0.0
        assert loss_value(spec, 2.0) == 2.0

    def test_pinball_left_branch(self):
        assert loss_value(LossSpec.pinball(0.5), -2.0) == 1.0

    def test_truncated_pinball_plateau(self):
        spec = LossSpec.truncated_pinball(tau=0.5, delta1=1.0, delta2=0.25)
        assert loss_value(spec, 5.0) == 1.0
        # negative-side plateau sits at delta2 past -delta2/tau
        assert loss_value(spec, -10.0) == 0.25
        assert loss_value(spec, -0.25) == 0.125

    def test_truncated_hinge_branches(self):
        spec = LossSpec.truncated_hinge(delta=1.0)
        assert loss_value(spec, 5.0) == 1.0
        assert loss_value(spec, 0.5) == 0.5
        assert loss_value(spec, -1.0) == 0.0

    def test_zero_one(self):
        spec = LossSpec.zero_one()
        assert loss_value(spec, 0.5) == 1.0
        assert loss_value(spec, 0.0) == 0.0


class TestDerivatives:
    def test_expsat_at_origin_and_unit(self):
        assert loss_derivative(LossSpec.expsat(2.0, 1.5), 0.0) == 0.0
        assert loss_derivative(LossSpec.expsat(1.0, 1.0), 1.0) == pytest.approx(ONE_OVER_E, abs=1e-15)

    def test_pinball_left_slope(self):
        assert loss_derivative(LossSpec.pinball(0.3), -1.0) == pytest.approx(-0.3)

    def test_kink_conventions(self):
        assert loss_derivative(LossSpec.hinge(), 0.0) == 0.0
        assert loss_derivative(LossSpec.pinball(0.4), 0.0) == -0.4
        assert loss_derivative(LossSpec.truncated_hinge(1.0), 0.0) == 0.0
        tp = LossSpec.truncated_pinball(tau=0.5, delta1=1.0, delta2=0.25)
        assert loss_derivative(tp, 0.0) == -0.5
        assert loss_derivative(tp, 2.0) == 0.0
        assert loss_derivative(tp, -1.0) == 0.0  # past -delta2/tau

    @pytest.mark.parametrize("a,lam", PARAM_GRID)
    def test_matches_central_difference(self, a, lam):
        # u = 0 is excluded: the loss is C1 but not C2 there, and the
        # central difference carries an O(h) truncation error lam*a^2*h/4
        # that exceeds the tolerance for a = 5; exactness at the origin
        # is asserted separately below.
        spec = LossSpec.expsat(a, lam)
        h = 1e-6
        for u in (-1.0, 0.01, 0.5, 1.0, 3.0):
            fd = (loss_value(spec, u + h) - loss_value(spec, u - h)) / (2 * h)
            assert abs(loss_derivative(spec, u) - fd) <= 1e-6

    @pytest.mark.parametrize("a,lam", PARAM_GRID)
    def test_exact_zero_at_origin(self, a, lam):
        spec = LossSpec.expsat(a, lam)
        assert loss_derivative(spec, 0.0) == 0.0
        assert loss_derivative(spec, -1e-12) == 0.0

    def test_smooth_at_zero_from_the_right(self):
        spec = LossSpec.expsat(1.0, 1.0)
        assert loss_value(spec, 1e-8) < 1e-12
        assert loss_derivative(spec, 1e-8) < 1e-6


class TestExtremeParameters:
    """Parameters near the float range evaluate to their limits, with no
    floating-point warning from the branches that ``np.where`` discards."""

    def test_expsat(self):
        spec = LossSpec.expsat(1e308, 1e308)
        u = np.array([-2.0, 0.0, 1e-306, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, deriv = loss_value(spec, u), loss_derivative(spec, u)
        assert value.tolist() == [0.0, 0.0, 1e308, 1e308, 1e308]
        assert deriv.tolist() == [0.0, 0.0, math.inf, 0.0, 0.0]  # lam * a is past the float range

    def test_truncated_pinball_edge_past_the_float_range(self):
        spec = LossSpec.truncated_pinball(tau=1e-300, delta1=1.0, delta2=1e300)
        u = np.array([-1e300, -1.0, 0.0, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, deriv = loss_value(spec, u), loss_derivative(spec, u)
        assert value.tolist() == [1.0, 1e-300, 0.0, 0.5, 1.0]
        assert deriv.tolist() == [-1e-300, -1e-300, -1e-300, 1.0, 0.0]


class TestSupremum:
    def test_values(self):
        assert loss_supremum(LossSpec.expsat(5.0, 1.5)) == 1.5
        assert loss_supremum(LossSpec.zero_one()) == 1.0
        assert loss_supremum(LossSpec.hinge()) == math.inf
        assert loss_supremum(LossSpec.pinball(0.5)) == math.inf
        assert loss_supremum(LossSpec.truncated_hinge(2.0)) == 2.0
        assert loss_supremum(LossSpec.truncated_pinball(0.5, 1.0, 1.5)) == 1.5


class TestProperties:
    ALL_SPECS = [
        LossSpec.zero_one(),
        LossSpec.hinge(),
        LossSpec.pinball(0.5),
        LossSpec.pinball(0.0),
        LossSpec.truncated_hinge(1.0),
        LossSpec.truncated_pinball(0.5, 1.0, 0.25),
        LossSpec.expsat(1.0, 1.0),
        LossSpec.expsat(5.0, 2.0),
    ]

    def test_nonnegative_everywhere(self):
        u = np.linspace(-10, 10, 2001)
        for spec in self.ALL_SPECS:
            assert (loss_value(spec, u) >= 0).all()

    def test_zero_on_nonpositive_except_pinball_family(self):
        u = np.linspace(-10, 0, 500)
        for spec in self.ALL_SPECS:
            penalizes_correct = spec.tau > 0 and spec.kind in (
                LossKind.PINBALL,
                LossKind.TRUNCATED_PINBALL,
            )
            if not penalizes_correct:
                assert (loss_value(spec, u) == 0).all(), spec.kind

    @pytest.mark.parametrize("a,lam", PARAM_GRID)
    def test_expsat_bounded_by_lam(self, a, lam):
        spec = LossSpec.expsat(a, lam)
        u = np.linspace(-10, 10, 4001)
        vals = loss_value(spec, u)
        assert (vals <= lam).all()
        # saturation: the grid supremum approaches lam at the far end
        assert vals.max() >= 0.95 * lam

    def test_pointwise_zero_one_convergence(self):
        for u in (0.1, 0.5, 1.0, 2.0):
            for a in (1.0, 5.0, 20.0, 100.0):
                gap = abs(loss_value(LossSpec.expsat(a, 1.0), u) - 1.0)
                bound = (a * u + 1.0) * math.exp(-a * u)
                assert gap <= bound + 1e-15
        assert abs(loss_value(LossSpec.expsat(100.0, 1.0), 0.5) - 1.0) <= 1e-10

    def test_pinball_tau0_is_hinge(self):
        pin = LossSpec.pinball(0.0)
        hin = LossSpec.hinge()
        u = np.linspace(-5, 5, 1000)
        assert (loss_value(pin, u) == loss_value(hin, u)).all()

    def test_expsat_nonconvex_witness(self):
        spec = LossSpec.expsat(5.0, 1.0)
        u1, u2 = 0.0, 4.0
        mid = loss_value(spec, (u1 + u2) / 2.0)
        chord = 0.5 * (loss_value(spec, u1) + loss_value(spec, u2))
        assert mid > chord

    def test_vectorized_matches_scalar(self):
        u = np.array([-2.0, -0.5, 0.0, 0.3, 1.7, 5.0])
        for spec in self.ALL_SPECS:
            vec_v = loss_value(spec, u)
            vec_d = loss_derivative(spec, u)
            for i, ui in enumerate(u):
                assert vec_v[i] == loss_value(spec, float(ui))
                assert vec_d[i] == loss_derivative(spec, float(ui))

    def test_no_overflow_for_extreme_margins(self):
        spec = LossSpec.expsat(5.0, 2.0)
        with np.errstate(all="raise"):
            assert loss_value(spec, 1e300) == 2.0
            assert loss_derivative(spec, 1e300) == 0.0
            assert loss_value(spec, -1e300) == 0.0
            assert loss_derivative(spec, -1e300) == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "bad,fragment",
        [
            (dict(kind="expsat", a=0.0), "a > 0"),
            (dict(kind="expsat", a=-1.0), "a > 0"),
            (dict(kind="expsat", lam=0.0), "lam > 0"),
            (dict(kind="pinball", tau=-0.1), "tau"),
            (dict(kind="pinball", tau=1.5), "tau"),
            (dict(kind="truncated_hinge", delta=0.5), "delta"),
            (dict(kind="truncated_pinball", delta1=0.0), "delta1"),
            (dict(kind="truncated_pinball", delta2=-1.0), "delta2"),
        ],
    )
    def test_rejects_bad_parameters(self, bad, fragment):
        with pytest.raises(ParameterError, match=fragment):
            LossSpec(**bad)

    def test_irrelevant_parameters_ignored(self):
        # hinge does not care about a/lam/tau domains
        LossSpec(kind="hinge", a=-5.0, lam=-1.0)


def _column_params(kind, rng, B):
    """Per-column parameter arrays for ``kind``; tau includes both ends of [0, 1]."""
    draws = {
        "a": rng.uniform(0.05, 8.0, B),
        "lam": rng.uniform(0.1, 3.0, B),
        "tau": np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, B - 2)]),
        "delta": rng.uniform(1.0, 3.0, B),
        "delta1": rng.uniform(0.1, 3.0, B),
        "delta2": rng.uniform(0.1, 3.0, B),
    }
    return {name: draws[name] for name in PARAMETERS[kind]}


class TestPerColumnParameters:
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
    def test_each_column_equals_the_scalar_spec(self, kind):
        rng = np.random.default_rng(7)
        B = 9
        params = _column_params(kind, rng, B)
        batched = LossSpec(kind, **params)
        u = np.concatenate([
            rng.uniform(-4.0, 4.0, (40, B)),
            np.array([[0.0], [-0.0], [1e-300], [-1e-300], [1e300], [-1e300], [150.0], [-150.0]]).repeat(B, 1),
        ])
        values, derivs = loss_value(batched, u), loss_derivative(batched, u)
        bounds = np.broadcast_to(loss_derivative_bound(batched), (B,))
        for j in range(B):
            spec = LossSpec(kind, **{name: float(v[j]) for name, v in params.items()})
            assert values[:, j].tobytes() == loss_value(spec, u[:, j]).tobytes()
            assert derivs[:, j].tobytes() == loss_derivative(spec, u[:, j]).tobytes()
            assert bounds[j] == loss_derivative_bound(spec)

    @pytest.mark.parametrize("bad,fragment", [
        (dict(kind="expsat", a=np.array([1.0, -1.0])), "a > 0"),
        (dict(kind="expsat", lam=np.array([0.5, 0.0])), "lam > 0"),
        (dict(kind="pinball", tau=np.array([0.2, 1.5])), "tau"),
        (dict(kind="truncated_pinball", tau=np.array([0.2, np.nan])), "tau"),
        (dict(kind="truncated_hinge", delta=np.array([2.0, 0.5])), "delta"),
    ])
    def test_rejects_a_bad_column(self, bad, fragment):
        with pytest.raises(ParameterError, match=fragment):
            LossSpec(**bad)
