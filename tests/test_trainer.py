import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_gradient

import satsvm.trainer as trainer
from satsvm import (
    CapacityError,
    KernelSpec,
    LossKind,
    LossSpec,
    NumericError,
    ParameterError,
    ShapeError,
    TrainedModel,
    TrainerConfig,
    accuracy,
    decision_values,
    fit,
    fit_columns,
    gram_matrix,
    learning_rate_at,
    learning_rate_sequence,
    load_model,
    loss_derivative,
    normalize,
    objective,
    save_model,
    sign_labels,
    two_cluster_dataset,
)

ONE_MINUS_2_OVER_E = 0.26424111765711533
ONE_OVER_E = 0.36787944117144233


def _naive_objective(C, a, lam, K, y, beta):
    n = len(y)
    quad = 0.0
    for k in range(n):
        for j in range(n):
            quad += 0.5 * beta[k] * beta[j] * K[k, j]
    loss = 0.0
    for k in range(n):
        xi = 1.0 - y[k] * sum(beta[j] * K[k, j] for j in range(n))
        xp = xi if xi > 0 else 0.0
        loss += lam * (1.0 - (a * xp + 1.0) * math.exp(-a * xp))
    return quad + (C / n) * loss


class TestObjective:
    def test_zero_beta_gives_unit_margin_loss(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 2))
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        cfg = TrainerConfig(C=1.0, loss=LossSpec.expsat(1.0, 1.0))
        assert objective(cfg, K, y, np.zeros(5)) == pytest.approx(ONE_MINUS_2_OVER_E, abs=1e-14)

    def test_vanishes_as_c_goes_to_zero_at_zero_beta(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, -1.0])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        cfg = TrainerConfig(C=1e-12)
        assert objective(cfg, K, y, np.zeros(2)) <= 1e-12

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2, 3))
        y = np.array([1.0, -1.0])
        beta = rng.standard_normal(2)
        cfg = TrainerConfig(C=2.5, loss=LossSpec.expsat(1.3, 0.7), kernel=KernelSpec.gaussian(0.9))
        K = gram_matrix(cfg.kernel, X)
        got = objective(cfg, K, y, beta)
        want = _naive_objective(2.5, 1.3, 0.7, K, y, beta)
        assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_labels(self):
        K = gram_matrix(KernelSpec.linear(), np.eye(2))
        with pytest.raises(ParameterError, match="labels"):
            objective(TrainerConfig(), K, np.array([1.0, 0.0]), np.zeros(2))


class TestFullGradient:
    def test_pure_regularizer_when_margins_satisfied(self):
        X = 2.0 * np.eye(2)
        y = np.array([1.0, -1.0])
        K = gram_matrix(KernelSpec.linear(), X)
        beta = y.copy()  # margins y*(K beta) = 4 >= 1, loss inactive
        grad = full_gradient(TrainerConfig(), K, y, beta)
        assert (grad == K @ beta).all()

    def test_hand_computed_single_sample(self):
        K = gram_matrix(KernelSpec.linear(), np.array([[1.0]]))
        grad = full_gradient(TrainerConfig(C=1.0, loss=LossSpec.expsat(1.0, 1.0)),
                             K, np.array([1.0]), np.zeros(1))
        assert grad[0] == pytest.approx(-ONE_OVER_E, abs=1e-15)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_finite_differences(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(2, 7))
        X = rng.standard_normal((n, 2))
        y = rng.choice([-1.0, 1.0], size=n)
        beta = 0.5 * rng.standard_normal(n)
        cfg = TrainerConfig(
            C=float(rng.uniform(0.1, 5.0)),
            loss=LossSpec.expsat(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
            kernel=KernelSpec.gaussian(float(rng.uniform(0.5, 2.0))),
        )
        K = gram_matrix(cfg.kernel, X)
        grad = full_gradient(cfg, K, y, beta)
        h = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (objective(cfg, K, y, beta + e) - objective(cfg, K, y, beta - e)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5


class TestLearningRateSchedule:
    def test_closed_form_matches_iterates(self):
        alphas = list(learning_rate_sequence(0.1, 0.1, 100))
        for t, alpha in enumerate(alphas, start=1):
            assert alpha == pytest.approx(learning_rate_at(0.1, 0.1, t), rel=1e-12)

    def test_non_increasing_and_bounded_by_alpha0(self):
        alphas = np.array(list(learning_rate_sequence(0.1, 0.1, 50)))
        assert (alphas <= 0.1).all()
        assert (np.diff(alphas) <= 0).all()

    def test_collapses_within_about_fifteen_iterations(self):
        assert learning_rate_at(0.1, 0.1, 15) < 1e-5


SEPARABLE_80 = dict(n=80, m=4, separation=4.5, spread=0.55, seed=2)


class TestFit:
    def test_separable_training_accuracy(self):
        ds = two_cluster_dataset(**SEPARABLE_80)
        cfg = TrainerConfig(C=1.0, loss=LossSpec.expsat(1.0, 1.0),
                            kernel=KernelSpec.gaussian(1.0), seed=2)
        model = fit(cfg, ds.X, ds.y)
        assert accuracy(sign_labels(decision_values(model, ds.X)), ds.y) == 100.0

    def test_deterministic_same_seed(self):
        ds = two_cluster_dataset(n=60, seed=4)
        cfg = TrainerConfig(seed=13)
        m1 = fit(cfg, ds.X, ds.y)
        m2 = fit(cfg, ds.X, ds.y)
        assert (m1.beta == m2.beta).all()
        assert save_model(m1) == save_model(m2)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ParameterError, match="max_iters"):
            TrainerConfig(max_iters=0)

    def test_batch_larger_than_n(self):
        ds = two_cluster_dataset(n=20, seed=0)
        cfg = TrainerConfig(batch_size=32)
        with pytest.raises(ParameterError, match="batch size 32"):
            fit(cfg, ds.X, ds.y)

    def test_objective_does_not_increase_overall(self):
        ds = two_cluster_dataset(**SEPARABLE_80)
        cfg = TrainerConfig(C=1.0, kernel=KernelSpec.gaussian(1.0), seed=2)
        gram = gram_matrix(cfg.kernel, ds.X)
        start = objective(cfg, gram, ds.y, np.full(ds.n, cfg.beta0))
        model = fit(cfg, ds.X, ds.y, gram=gram)
        assert model.final_objective <= start

    def test_runs_exactly_max_iters(self):
        ds = two_cluster_dataset(n=30, seed=1)
        model = fit(TrainerConfig(max_iters=7), ds.X, ds.y)
        assert model.iterations_run == 7

    def test_non_finite_gradient_reported_with_iteration(self):
        ds = two_cluster_dataset(n=20, seed=1)
        cfg = TrainerConfig(C=1.0, alpha0=1e200, eta=1e-9, seed=0)
        with pytest.raises(NumericError, match="iteration"):
            fit(cfg, ds.X, ds.y)

    def test_non_finite_final_objective_raises(self):
        # every gradient and beta stay finite at C = 1e306, but the
        # objective's beta'K beta overflows
        ds = normalize(two_cluster_dataset(n=40, m=2, separation=3.0, spread=1.0, seed=0))
        with pytest.raises(NumericError, match="non-finite final objective nan"):
            fit(TrainerConfig(C=1e306), ds.X, ds.y)

    @pytest.mark.parametrize("eta,max_iters,expected", [(0.1, 1000, 122), (0.01, 1000, 385),
                                                        (1e-9, 200, 200), (0.1, 50, 50)])
    def test_returns_once_beta_is_frozen(self, monkeypatch, eta, max_iters, expected):
        # the loop reads one rate ahead, so t iterations consume t + 1 rates
        rates = []
        real = trainer.learning_rate_sequence

        def counted(*args):
            for alpha in real(*args):
                rates.append(alpha)
                yield alpha

        monkeypatch.setattr(trainer, "learning_rate_sequence", counted)
        ds = two_cluster_dataset(n=60, seed=4)
        model = fit(TrainerConfig(eta=eta, max_iters=max_iters, seed=2), ds.X, ds.y)
        assert len(rates) - 1 == expected
        assert model.iterations_run == max_iters

    def test_products_skipped_once_steps_are_absorbed(self, monkeypatch):
        # At the defaults the 122 iterations before the early return run
        # the products and the loss derivative only up to iteration 37; the
        # later gradient steps are below a quarter ulp of r*v.
        calls = []
        real = trainer.loss_derivative
        monkeypatch.setattr(trainer, "loss_derivative", lambda *a: calls.append(1) or real(*a))
        ds = two_cluster_dataset(n=60, seed=4)
        model = fit(TrainerConfig(seed=2), ds.X, ds.y)
        assert len(calls) == 37
        beta, final = _reference_fit(TrainerConfig(seed=2), ds.X, ds.y)
        assert model.beta.tobytes() == beta.tobytes()
        assert np.float64(model.final_objective).tobytes() == np.float64(final).tobytes()

    def test_skipped_and_live_iterations_alternate_bit_exactly(self, monkeypatch):
        # At alpha0 = 1e-25 the first steps are absorbed; once r*v has
        # shrunk below the gradient step the products run again, until the
        # rate has decayed far enough.
        absorbed = []
        real = trainer._step_absorbed
        monkeypatch.setattr(trainer, "_step_absorbed", lambda *a: absorbed.append(real(*a)) or absorbed[-1])
        ds = two_cluster_dataset(n=60, seed=4)
        cfg = TrainerConfig(alpha0=1e-25, eta=0.01, max_iters=400, seed=2)
        model = fit(cfg, ds.X, ds.y)
        runs = [(state, len(list(group))) for state, group in itertools.groupby(absorbed)]
        assert runs == [(True, 19), (False, 65), (True, 287)]
        assert model.beta.tobytes() == _reference_fit(cfg, ds.X, ds.y)[0].tobytes()

    def test_zero_momentum_step_is_never_absorbed(self):
        bounds = (1.0, 700.0, 1400.0)
        beta = np.ones((2, 1))
        assert trainer._step_absorbed(1e-300, beta, 1.0, bounds)
        assert not trainer._step_absorbed(1e-300, beta, 0.0, bounds)
        assert not trainer._step_absorbed(1e-300, beta, np.float64(np.nan), bounds)
        assert not trainer._step_absorbed(1e-300, np.array([[1.0], [np.inf]]), 1.0, bounds)
        # not even at rate 0.0, where -0.0 - 0.0*grad is +0.0 for grad < 0;
        # nor does the smallest subnormal, whose quarter spacing is 0.0
        assert not trainer._step_absorbed(0.0, beta, 0.0, bounds)
        assert not trainer._step_absorbed(0.0, beta, 5e-324, bounds)
        assert trainer._step_absorbed(0.0, beta, 2.0**-1000, bounds)

    def test_gradient_check_kept_after_freeze(self):
        # One -1 sample sits on a +1 sample; the others are far apart, so
        # K is the identity apart from that pair. At C = 1.5e308 beta is
        # frozen after iteration 186, but once the -1 sample is first drawn
        # (iteration 327 for seed 80) its gradient overflows. The gradient
        # bound in _frozen keeps the loop running to that check.
        n = 200
        X = np.zeros((n, 1))
        X[2:, 0] = 100.0 * np.arange(1, n - 1)
        y = np.ones(n)
        y[1] = -1.0
        cfg = TrainerConfig(C=1.5e308, loss=LossSpec.hinge(), batch_size=1, seed=80)
        with pytest.raises(NumericError, match="iteration 327$"):
            _reference_fit(cfg, X, y)
        with pytest.raises(NumericError, match="iteration 327$"):
            fit(cfg, X, y)

    def test_frozen_rules_out_negative_zero(self):
        # the bounds of K = I with the default expsat loss: k_max, C*d, n*d
        bounds = (1.0, 700.0, 1400.0)
        cfg = TrainerConfig(r=0.5)
        assert trainer._frozen(cfg, np.array([0.0, 1.0]), np.array([-0.0, 1e-20]), bounds)
        assert not trainer._frozen(cfg, np.array([-0.0, 1.0]), np.zeros(2), bounds)
        assert not trainer._frozen(cfg, np.array([1.0, 1.0]), np.array([0.0, 1e-15]), bounds)

    def test_snapshot_records_resolved_batch_size(self):
        ds = two_cluster_dataset(n=50, seed=3)
        model = fit(TrainerConfig(), ds.X, ds.y)
        assert model.config_snapshot.batch_size == 4
        ds2 = two_cluster_dataset(n=120, seed=3)
        model2 = fit(TrainerConfig(), ds2.X, ds2.y)
        assert model2.config_snapshot.batch_size == 32


def _reference_fit(config, X, y):
    """The NAG loop as it ran before the early return: all max_iters iterations."""
    n = X.shape[0]
    s = config.resolved_batch_size(n)
    K = gram_matrix(config.kernel, X)
    scale = config.C / s
    beta = np.full(n, config.beta0, dtype=float)
    v = np.full(n, config.v0, dtype=float)
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, alpha in enumerate(
            learning_rate_sequence(config.alpha0, config.eta, config.max_iters), start=1
        ):
            batch = rng.choice(n, size=s, replace=False)
            beta_look = beta + config.r * v
            kb = K @ beta_look
            xi = 1.0 - y[batch] * kb[batch]
            w = loss_derivative(config.loss, xi) * y[batch]
            grad = kb - scale * (K[batch].T @ w)
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient at iteration {t}")
            v = config.r * v - alpha * grad
            beta = beta_look + v
    return beta, objective(config, K, y, beta)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_START = st.sampled_from([0.0, -0.0, 0.01]) | st.floats(-1.0, 1.0)


class TestEarlyReturnIsBitExact:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 40), m=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1), batch=st.floats(0.0, 1.0), max_iters=st.integers(1, 400),
        alpha0=_log_uniform(1e-3, 10.0), eta=_log_uniform(0.02, 1.0), r=st.floats(0.0, 0.95),
        C=_log_uniform(1e-6, 1e6), sigma=_log_uniform(1e-3, 1e3), a=_log_uniform(0.1, 10.0),
        kind=st.sampled_from(list(LossKind)), linear=st.booleans(), beta0=_START, v0=_START,
    )
    def test_matches_full_loop(self, n, m, data_seed, seed, batch, max_iters, alpha0, eta, r, C,
                               sigma, a, kind, linear, beta0, v0):
        rng = np.random.default_rng(data_seed)
        X = rng.standard_normal((n, m))
        y = rng.choice([-1.0, 1.0], size=n)
        cfg = TrainerConfig(
            C=C, loss=LossSpec(kind, a=a), kernel=KernelSpec.linear() if linear else KernelSpec.gaussian(sigma),
            beta0=beta0, v0=v0, alpha0=alpha0, eta=eta, r=r, batch_size=1 + int(batch * (n - 1)),
            max_iters=max_iters, seed=seed,
        )
        _assert_matches_full_loop(cfg, X, y)

    # A slowly decaying rate from as low as alpha0 = 1e-30 lets absorbed
    # gradient steps come and go. r = 0 keeps r*v zero and a zero v0 makes
    # the first r*v zero; a step onto a zero is never absorbed.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 30), m=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1), batch=st.floats(0.0, 1.0), max_iters=st.integers(100, 400),
        alpha0=_log_uniform(1e-30, 1.0), eta=_log_uniform(3e-3, 0.03),
        r=st.sampled_from([0.0, 0.6]) | st.floats(0.0, 0.95), C=_log_uniform(1e-6, 1e6),
        sigma=_log_uniform(1e-3, 1e3), kind=st.sampled_from(list(LossKind)), linear=st.booleans(),
        beta0=_START, v0=st.sampled_from([0.0, -0.0]) | _START,
    )
    def test_slow_decay_matches_full_loop(self, n, m, data_seed, seed, batch, max_iters, alpha0, eta, r, C,
                                          sigma, kind, linear, beta0, v0):
        rng = np.random.default_rng(data_seed)
        X = rng.standard_normal((n, m))
        y = rng.choice([-1.0, 1.0], size=n)
        cfg = TrainerConfig(
            C=C, loss=LossSpec(kind), kernel=KernelSpec.linear() if linear else KernelSpec.gaussian(sigma),
            beta0=beta0, v0=v0, alpha0=alpha0, eta=eta, r=r, batch_size=1 + int(batch * (n - 1)),
            max_iters=max_iters, seed=seed,
        )
        _assert_matches_full_loop(cfg, X, y)

    def test_signed_zeros_at_a_rate_that_underflows(self):
        # alpha0 = 5e-324 rounds to 0.0 from iteration 5 on, while beta and
        # v hold only signed zeros, whose signs a 0.0 step can still flip
        ds = two_cluster_dataset(n=20, seed=1)
        for seed, beta0, v0 in itertools.product(range(20), [0.0, -0.0], [0.0, -0.0]):
            cfg = TrainerConfig(loss=LossSpec.hinge(), beta0=beta0, v0=v0, alpha0=5e-324, eta=0.1, r=0.5,
                                max_iters=50, seed=seed)
            _assert_matches_full_loop(cfg, ds.X, ds.y)


def _assert_matches_full_loop(cfg, X, y):
    """``fit`` gives the bits, or the NumericError, of all max_iters iterations."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            beta, final = _reference_fit(cfg, X, y)
        if not math.isfinite(final):
            raise NumericError(f"non-finite final objective {final!r}")
    except NumericError as exc:
        with pytest.raises(NumericError, match=f"^{exc}$"):
            fit(cfg, X, y)
        return
    model = fit(cfg, X, y)
    assert model.beta.tobytes() == beta.tobytes()
    assert np.float64(model.final_objective).tobytes() == np.float64(final).tobytes()
    assert model.iterations_run == cfg.max_iters


# Columns of fit_columns agree with separate fits to this tolerance, on
# K beta and relative to sum_j |K_kj| m_j, where m_j is the largest |beta_j|
# the training run reaches: rounding scales with the iterates, and the
# final beta_j can be far smaller after cancellation.
COLUMN_RTOL = 1e-12


def _largest_iterates(config, X, y):
    """Elementwise max of |beta| and |beta + r*v| over the full loop."""
    n = X.shape[0]
    s = config.resolved_batch_size(n)
    K = gram_matrix(config.kernel, X)
    beta = np.full(n, config.beta0, dtype=float)
    v = np.full(n, config.v0, dtype=float)
    top = np.abs(beta)
    rng = np.random.default_rng(config.seed)
    for alpha in learning_rate_sequence(config.alpha0, config.eta, config.max_iters):
        batch = rng.choice(n, size=s, replace=False)
        beta_look = beta + config.r * v
        kb = K @ beta_look
        w = loss_derivative(config.loss, 1.0 - y[batch] * kb[batch]) * y[batch]
        v = config.r * v - alpha * (kb - config.C / s * (K[batch].T @ w))
        beta = beta_look + v
        top = np.maximum(top, np.maximum(np.abs(beta_look), np.abs(beta)))
    return top


def _column_config(config, **columns):
    """``config`` with per-column C and loss parameters."""
    columns = {key: np.asarray(value, dtype=float) for key, value in columns.items()}
    C = columns.pop("C", config.C)
    return replace(config, C=C, loss=replace(config.loss, **columns))


class TestFitColumns:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 30), m=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1), batch=st.floats(0.0, 1.0), max_iters=st.integers(1, 300),
        alpha0=_log_uniform(1e-3, 10.0), eta=_log_uniform(0.02, 1.0), r=st.floats(0.0, 0.95),
        C=_log_uniform(1e-6, 1e6), sigma=_log_uniform(1e-3, 1e3), a=_log_uniform(0.1, 10.0),
        kind=st.sampled_from(list(LossKind)), linear=st.booleans(), beta0=_START, v0=_START,
    )
    def test_one_column_matches_full_loop_bit_for_bit(self, n, m, data_seed, seed, batch, max_iters, alpha0,
                                                      eta, r, C, sigma, a, kind, linear, beta0, v0):
        rng = np.random.default_rng(data_seed)
        X = rng.standard_normal((n, m))
        y = rng.choice([-1.0, 1.0], size=n)
        cfg = TrainerConfig(
            C=C, loss=LossSpec(kind, a=a), kernel=KernelSpec.linear() if linear else KernelSpec.gaussian(sigma),
            beta0=beta0, v0=v0, alpha0=alpha0, eta=eta, r=r, batch_size=1 + int(batch * (n - 1)),
            max_iters=max_iters, seed=seed,
        )
        one = _column_config(cfg, C=[C])
        try:
            beta, final = _reference_fit(cfg, X, y)
            if not math.isfinite(final):
                raise NumericError(f"non-finite final objective {final!r}")
        except NumericError as exc:
            with pytest.raises(NumericError, match=f"^{exc} for C="):
                fit_columns(one, X, y)
            return
        assert fit_columns(one, X, y)[:, 0].tobytes() == beta.tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 40), m=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1), batch=st.floats(0.0, 1.0), max_iters=st.integers(1, 300),
        alpha0=_log_uniform(1e-3, 10.0), eta=_log_uniform(0.02, 1.0), r=st.floats(0.0, 0.95),
        sigma=_log_uniform(1e-2, 1e2), kind=st.sampled_from(list(LossKind)), linear=st.booleans(),
        width=st.integers(1, 6), param_seed=st.integers(0, 2**32 - 1), overflow=st.booleans(),
    )
    def test_columns_match_separate_fits(self, n, m, data_seed, seed, batch, max_iters, alpha0, eta, r,
                                         sigma, kind, linear, width, param_seed, overflow):
        rng = np.random.default_rng(data_seed)
        X = rng.standard_normal((n, m))
        y = rng.choice([-1.0, 1.0], size=n)
        prng = np.random.default_rng(param_seed)
        columns = {
            "C": 10.0 ** prng.uniform(-4, 4, width),
            "a": 10.0 ** prng.uniform(-1, 1, width),
            "lam": 10.0 ** prng.uniform(-1, 0.5, width),
            "tau": prng.choice([0.0, 0.3, 0.5, 1.0], width),
            "delta": prng.uniform(1.0, 3.0, width),
            "delta1": prng.uniform(0.2, 2.0, width),
            "delta2": prng.uniform(0.2, 2.0, width),
        }
        if overflow:
            columns["C"][prng.integers(width)] = 1e306
        base = TrainerConfig(
            loss=LossSpec(kind), kernel=KernelSpec.linear() if linear else KernelSpec.gaussian(sigma),
            alpha0=alpha0, eta=eta, r=r, batch_size=1 + int(batch * (n - 1)), max_iters=max_iters, seed=seed,
        )
        batched = _column_config(base, **columns)
        K = gram_matrix(base.kernel, X)
        separate, failed = [], False
        for j in range(width):
            try:
                separate.append(fit(_column_config(base, **{k: v[j] for k, v in columns.items()}), X, y).beta)
            except NumericError:
                failed = True
        if failed:
            with pytest.raises(NumericError):
                fit_columns(batched, X, y)
            return
        beta = fit_columns(batched, X, y)
        for j, want in enumerate(separate):
            top = _largest_iterates(_column_config(base, **{k: v[j] for k, v in columns.items()}), X, y)
            assert (np.abs(K @ beta[:, j] - K @ want) <= COLUMN_RTOL * (np.abs(K) @ top)).all()

    def test_numeric_errors_name_the_column(self):
        ds = normalize(two_cluster_dataset(n=40, m=2, separation=3.0, spread=1.0, seed=0))
        cfg = _column_config(TrainerConfig(), C=[1.0, 1e306], a=[0.5, 2.0])
        want = r"^non-finite final objective nan for C=1e\+306, a=2.0, lam=1.0$"
        with pytest.raises(NumericError, match=want):
            fit_columns(cfg, ds.X, ds.y)
        # the overflowing setting of test_gradient_check_kept_after_freeze, as column 1
        n = 200
        X = np.zeros((n, 1))
        X[2:, 0] = 100.0 * np.arange(1, n - 1)
        y = np.ones(n)
        y[1] = -1.0
        hinge = TrainerConfig(loss=LossSpec.hinge(), batch_size=1, seed=80)
        with pytest.raises(NumericError, match=r"^non-finite gradient at iteration 327 for C=1.5e\+308$"):
            fit_columns(_column_config(hinge, C=[1.0, 1.5e308]), X, y)

    def test_column_budget(self, monkeypatch):
        ds = two_cluster_dataset(n=30, seed=1)
        cfg = _column_config(TrainerConfig(max_iters=5), C=[1.0, 2.0, 3.0])
        monkeypatch.setattr(trainer, "COLUMN_BYTES", 8 * 30 * 2)
        with pytest.raises(CapacityError, match="3 columns"):
            fit_columns(cfg, ds.X, ds.y)
        assert fit_columns(_column_config(cfg, C=[1.0, 2.0]), ds.X, ds.y).shape == (30, 2)

    def test_column_parameters_must_agree(self):
        with pytest.raises(ShapeError, match="equal-length"):
            _column_config(TrainerConfig(), C=[1.0, 2.0], a=[1.0, 2.0, 3.0])
        with pytest.raises(ParameterError, match="C must be > 0"):
            _column_config(TrainerConfig(), C=[1.0, 0.0])
        ds = two_cluster_dataset(n=30, seed=1)
        with pytest.raises(ParameterError, match="fit_columns"):
            fit(_column_config(TrainerConfig(), C=[1.0, 2.0]), ds.X, ds.y)


def _value(model, x) -> float:
    """Decision value of one sample, as a 1-row batch."""
    return decision_values(model, np.atleast_2d(x))[0]


def _label(model, x) -> float:
    return sign_labels(decision_values(model, np.atleast_2d(x)))[0]


def _naive_decisions(model, X):
    """Double sum over queries and support points, one kernel value at a time."""
    pts, spec = model.support_points, model.kernel
    out, scale = [], []
    for x in X:
        if spec.kind.value == "linear":
            k = [float(p @ x) for p in pts]
        else:
            k = [math.exp(-float((p - x) @ (p - x)) / spec.sigma**2) for p in pts]
        terms = [b * kj for b, kj in zip(model.beta, k)]
        out.append(math.fsum(terms))
        scale.append(math.fsum(abs(t) for t in terms))
    return np.array(out), np.array(scale)


# decision_values agrees with the exact double sum to this tolerance,
# relative to sum_j |beta_j K(x_j, x)|
DECISION_RTOL = 1e-12


class TestPredict:
    def _zero_model(self, X):
        return TrainedModel(
            beta=np.zeros(len(X)),
            support_points=X,
            config_snapshot=TrainerConfig(kernel=KernelSpec.gaussian(1.0)),
            final_objective=0.0,
        )

    def test_zero_beta_ties_to_plus_one(self):
        model = self._zero_model(np.zeros((3, 2)))
        assert _label(model, np.array([5.0, -7.0])) == 1.0
        assert _value(model, np.array([5.0, -7.0])) == 0.0

    def test_single_positive_support_point(self):
        model = TrainedModel(
            beta=np.array([2.5]),
            support_points=np.array([[1.0, 1.0]]),
            config_snapshot=TrainerConfig(kernel=KernelSpec.gaussian(1.0)),
            final_objective=0.0,
        )
        assert _value(model, np.array([1.0, 1.0])) == 2.5
        assert _label(model, np.array([-3.0, 4.0])) == 1.0  # gaussian kernel is positive

    def test_decision_matches_naive_sum(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((3, 2))
        beta = rng.standard_normal(3)
        spec = KernelSpec.gaussian(0.8)
        model = TrainedModel(beta=beta, support_points=pts, config_snapshot=TrainerConfig(kernel=spec),
                             final_objective=0.0)
        x = rng.standard_normal(2)
        naive = sum(
            beta[j] * math.exp(-float((pts[j] - x) @ (pts[j] - x)) / spec.sigma**2)
            for j in range(3)
        )
        assert _value(model, x) == pytest.approx(naive, abs=1e-12)

    def test_trained_model_classifies_centroids(self):
        ds = two_cluster_dataset(**SEPARABLE_80)
        cfg = TrainerConfig(C=1.0, kernel=KernelSpec.gaussian(1.0), seed=2)
        model = fit(cfg, ds.X, ds.y)
        pos = ds.X[ds.y == 1.0].mean(axis=0)
        neg = ds.X[ds.y == -1.0].mean(axis=0)
        assert _label(model, pos) == 1.0
        assert _label(model, neg) == -1.0

    def test_dimension_mismatch_names_both_shapes(self):
        model = self._zero_model(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(3, 2\)"):
            decision_values(model, np.zeros((1, 3)))


class TestDecisionValues:
    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.3), KernelSpec.gaussian(1.0), KernelSpec.linear()],
                             ids=["gauss-0.3", "gauss-1", "linear"])
    @pytest.mark.parametrize("n,m", [(1, 2), (7, 3), (300, 10)])
    def test_matches_double_sum(self, spec, n, m):
        rng = np.random.default_rng(n * m)
        model = TrainedModel(beta=rng.standard_normal(n), support_points=rng.uniform(-1, 1, (n, m)),
                             config_snapshot=TrainerConfig(kernel=spec), final_objective=0.0)
        X = rng.uniform(-1.2, 1.2, (157, m))
        got = decision_values(model, X)
        naive, scale = _naive_decisions(model, X)
        assert (np.abs(got - naive) <= DECISION_RTOL * scale).all()
        clear = np.abs(naive) > DECISION_RTOL * scale
        assert (sign_labels(decision_values(model, X))[clear] == np.where(naive[clear] >= 0, 1.0, -1.0)).all()

    def test_blocks_stay_within_the_byte_budget(self, monkeypatch):
        import satsvm.kernel as kernel

        calls = []
        real = kernel._rows

        def spy(spec, S, ST, Z, lo, hi, tile, tiles, *rest):
            calls.append((lo, hi, tile, *(t.shape for t in tiles)))
            real(spec, S, ST, Z, lo, hi, tile, tiles, *rest)

        monkeypatch.setattr(kernel, "_rows", spy)
        rng = np.random.default_rng(0)
        n, m = 500, 10
        model = self._model(rng, n, m)
        X = rng.uniform(-1, 1, (1000, m))
        decision_values(model, X)
        # a block of kernel values and its scratch, 8 bytes per entry each;
        # 1000 x 500 entries run inline, one block per tile
        rows = kernel.BLOCK_BYTES // (16 * n)
        assert calls == [(0, 1000, rows, (rows, n), (rows, n))] and rows < 1000

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.3), KernelSpec.linear()], ids=["gauss", "linear"])
    @pytest.mark.parametrize("queries", [1, 7, 1001])
    def test_bits_match_blocks_over_the_stored_support_points(self, spec, queries):
        from satsvm.kernel import block_rows, kernel_block

        rng = np.random.default_rng(queries)
        model = replace(self._model(rng, 500, 10), config_snapshot=TrainerConfig(kernel=spec))
        X = rng.uniform(-1, 1, (queries, 10))
        rows = block_rows(500)
        want = np.concatenate([kernel_block(spec, model.support_points, X[i : i + rows]) @ model.beta
                               for i in range(0, queries, rows)])
        assert decision_values(model, X).tobytes() == want.tobytes()

    def test_empty_query_set(self):
        model = self._model(np.random.default_rng(1), 5, 2)
        assert decision_values(model, np.zeros((0, 2))).shape == (0,)

    @staticmethod
    def _model(rng, n, m):
        return TrainedModel(beta=rng.standard_normal(n), support_points=rng.uniform(-1, 1, (n, m)),
                            config_snapshot=TrainerConfig(kernel=KernelSpec.gaussian(0.3)), final_objective=0.0)


class TestSerialization:
    def test_roundtrip(self):
        ds = two_cluster_dataset(n=40, seed=6)
        model = fit(TrainerConfig(seed=1), ds.X, ds.y)
        back = load_model(save_model(model))
        assert (back.beta == model.beta).all()
        assert (back.support_points == model.support_points).all()
        assert back.kernel == model.kernel
        assert back.config_snapshot == model.config_snapshot
        assert back.final_objective == model.final_objective
        x = ds.X[0]
        assert _value(back, x) == _value(model, x)

    def test_canonical_bytes_stable(self):
        ds = two_cluster_dataset(n=40, seed=6)
        model = fit(TrainerConfig(seed=1), ds.X, ds.y)
        assert save_model(model) == save_model(load_model(save_model(model)))


class TestTrainedModelChecksItself:
    @staticmethod
    def _valid():
        rng = np.random.default_rng(0)
        return dict(beta=rng.standard_normal(4), support_points=rng.uniform(-1, 1, (4, 3)),
                    config_snapshot=TrainerConfig(), final_objective=0.5,
                    scaler=((0.0, 1.0), (-1.0, 2.0), (3.0, 4.0)))

    @pytest.mark.parametrize("field,value,error", [
        ("support_points", np.array([[0.1, np.nan, 0.2]] + [[0.0] * 3] * 3), ParameterError),
        ("scaler", ((0.0, 1.0), (-1.0, 2.0)), ShapeError),
        ("final_objective", math.inf, ParameterError),
        ("final_objective", math.nan, ParameterError),
        ("support_points", np.zeros((0, 3)), ShapeError),
    ], ids=["nan-support-point", "scaler-one-pair-short", "infinite-objective", "nan-objective",
            "no-support-points"])
    def test_invalid_model_raises_when_built_and_when_replaced(self, field, value, error):
        fields = self._valid()
        model = TrainedModel(**fields)
        if field == "support_points" and len(value) == 0:
            fields["beta"] = np.zeros(0)
        with pytest.raises(error):
            TrainedModel(**{**fields, field: value})
        with pytest.raises(error):
            replace(model, **{field: value})

    def test_beta_and_support_points_are_read_only_copies(self):
        fields = self._valid()
        model = TrainedModel(**fields)
        assert model.beta is not fields["beta"] and not model.beta.flags.writeable
        assert model.support_points is not fields["support_points"] and not model.support_points.flags.writeable
        assert model.scaler == fields["scaler"]

    def test_kernel_and_iterations_follow_the_config(self):
        config = TrainerConfig(kernel=KernelSpec.linear(), max_iters=17)
        model = replace(TrainedModel(**self._valid()), config_snapshot=config)
        assert model.kernel is config.kernel and model.iterations_run == 17
        ds = two_cluster_dataset(n=40, seed=6)
        fitted = fit(TrainerConfig(kernel=KernelSpec.gaussian(0.7), max_iters=30, seed=1), ds.X, ds.y)
        assert fitted.kernel == KernelSpec.gaussian(0.7) and fitted.iterations_run == 30
        with pytest.raises(TypeError, match="kernel"):  # not a field: it cannot disagree with the config
            replace(fitted, kernel=KernelSpec.linear())
