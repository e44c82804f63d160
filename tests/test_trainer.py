import math

import numpy as np
import pytest

from satsvm import (
    KernelSpec,
    LossSpec,
    NumericError,
    ParameterError,
    ShapeError,
    TrainedModel,
    TrainerConfig,
    accuracy,
    decision_values,
    fit,
    full_gradient,
    gram_matrix,
    learning_rate_at,
    learning_rate_sequence,
    load_model,
    objective,
    predict_batch,
    save_model,
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
        want = _naive_objective(2.5, 1.3, 0.7, K.entries, y, beta)
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
        assert (grad == K.entries @ beta).all()

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
        assert accuracy(predict_batch(model, ds.X), ds.y) == 100.0

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

    def test_snapshot_records_resolved_batch_size(self):
        ds = two_cluster_dataset(n=50, seed=3)
        model = fit(TrainerConfig(), ds.X, ds.y)
        assert model.config_snapshot.batch_size == 4
        ds2 = two_cluster_dataset(n=120, seed=3)
        model2 = fit(TrainerConfig(), ds2.X, ds2.y)
        assert model2.config_snapshot.batch_size == 32


def _value(model, x) -> float:
    """Decision value of one sample, as a 1-row batch."""
    return decision_values(model, np.atleast_2d(x))[0]


def _label(model, x) -> float:
    return predict_batch(model, np.atleast_2d(x))[0]


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
            kernel=KernelSpec.gaussian(1.0),
            config_snapshot=TrainerConfig(),
            iterations_run=0,
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
            kernel=KernelSpec.gaussian(1.0),
            config_snapshot=TrainerConfig(),
            iterations_run=0,
            final_objective=0.0,
        )
        assert _value(model, np.array([1.0, 1.0])) == 2.5
        assert _label(model, np.array([-3.0, 4.0])) == 1.0  # gaussian kernel is positive

    def test_decision_matches_naive_sum(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((3, 2))
        beta = rng.standard_normal(3)
        spec = KernelSpec.gaussian(0.8)
        model = TrainedModel(beta=beta, support_points=pts, kernel=spec,
                             config_snapshot=TrainerConfig(), iterations_run=0, final_objective=0.0)
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
                             kernel=spec, config_snapshot=TrainerConfig(), iterations_run=0,
                             final_objective=0.0)
        X = rng.uniform(-1.2, 1.2, (157, m))
        got = decision_values(model, X)
        naive, scale = _naive_decisions(model, X)
        assert (np.abs(got - naive) <= DECISION_RTOL * scale).all()
        clear = np.abs(naive) > DECISION_RTOL * scale
        assert (predict_batch(model, X)[clear] == np.where(naive[clear] >= 0, 1.0, -1.0)).all()

    def test_blocks_stay_within_the_byte_budget(self, monkeypatch):
        import satsvm.trainer as trainer

        blocks = []
        real = trainer.kernel_block

        def spy(spec, S, Z):
            blocks.append(Z.shape[0])
            return real(spec, S, Z)

        monkeypatch.setattr(trainer, "kernel_block", spy)
        rng = np.random.default_rng(0)
        n, m = 500, 10
        model = self._model(rng, n, m)
        X = rng.uniform(-1, 1, (1000, m))
        decision_values(model, X)
        rows = max(1, trainer.BLOCK_BYTES // (n * m * 8))
        assert sum(blocks) == 1000 and max(blocks) == rows < 1000

    def test_empty_query_set(self):
        model = self._model(np.random.default_rng(1), 5, 2)
        assert decision_values(model, np.zeros((0, 2))).shape == (0,)

    @staticmethod
    def _model(rng, n, m):
        return TrainedModel(beta=rng.standard_normal(n), support_points=rng.uniform(-1, 1, (n, m)),
                            kernel=KernelSpec.gaussian(0.3), config_snapshot=TrainerConfig(),
                            iterations_run=0, final_objective=0.0)


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
