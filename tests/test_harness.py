import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import expsat_config, forced_workers, hinge_config, one_blas_thread_env, separable_dataset

import satsvm.harness as harness
import satsvm.trainer as trainer
from satsvm import (
    CapacityError,
    CorruptionMode,
    GridSpec,
    KernelSpec,
    LossSpec,
    ParameterError,
    ShapeError,
    TrainerConfig,
    accuracy,
    apply_params,
    decision_values,
    fit,
    grid_search_models,
    inject_label_noise,
    inject_outliers,
    make_folds,
    model_label,
    normalize,
    robustness_suite,
    sensitivity_sweep,
    sign_labels,
    two_cluster_dataset,
)
from satsvm.kernel import COLUMN_GROUP
from satsvm.loss import LossKind
from satsvm.seeds import child_seed


class TestAccuracy:
    def test_all_correct(self):
        v = np.ones(50)
        assert accuracy(v, v) == 100.0

    def test_all_wrong(self):
        v = np.ones(20)
        assert accuracy(v, -v) == 0.0

    def test_confusion_counts(self):
        # TP=3, TN=2, FP=1, FN=4 -> 5 of 10 correct
        truth = np.array([1, 1, 1, 1, 1, 1, 1, -1, -1, -1], dtype=float)
        preds = np.array([1, 1, 1, -1, -1, -1, -1, -1, -1, 1], dtype=float)
        assert accuracy(preds, truth) == 50.0

    def test_columns_score_as_their_vectors(self):
        rng = np.random.default_rng(0)
        truth = rng.choice([-1.0, 1.0], size=37)
        preds = rng.choice([-1.0, 1.0], size=(37, 5))
        got = accuracy(preds, truth)
        assert got.shape == (5,)
        assert got.tolist() == [accuracy(column, truth) for column in preds.T]
        with pytest.raises(ShapeError):
            accuracy(preds, preds)

    def test_errors(self):
        with pytest.raises(ParameterError):
            accuracy(np.array([]), np.array([]))
        with pytest.raises(ShapeError):
            accuracy(np.ones(3), np.ones(4))
        with pytest.raises(ParameterError):
            accuracy(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def _cross_validate(ds, config, plan):
    """The k-fold accuracies of one configuration: its row of a robustness
    table at corruption rate 0."""
    (row,), _ = robustness_suite(ds, [("m", config)], rates=(0.0,), plan=plan)
    return row


class TestCrossValidate:
    def test_separable_reaches_high_accuracy(self, separable):
        ds, plan = separable
        cv = _cross_validate(ds, expsat_config(), plan)
        assert cv.mean_accuracy >= 95.0

    def test_identical_folds_zero_std(self, separable):
        ds, plan = separable
        cv = _cross_validate(ds, expsat_config(), plan)
        assert cv.per_fold_accuracies == (100.0,) * 5
        assert cv.mean_accuracy == 100.0 and cv.std_accuracy == 0.0

    def test_mean_matches_per_fold_recomputation(self, separable):
        ds, plan = separable
        cv = _cross_validate(ds, expsat_config(C=0.5), plan)
        assert cv.mean_accuracy == pytest.approx(np.mean(cv.per_fold_accuracies), abs=1e-9)
        assert cv.std_accuracy == pytest.approx(np.std(cv.per_fold_accuracies), abs=1e-9)

    def test_plan_must_match_dataset(self, separable):
        ds, _ = separable
        with pytest.raises(ShapeError):
            _cross_validate(ds, expsat_config(), make_folds(50, 5, seed=1))


class TestGridSpec:
    def test_defaults_match_protocol(self):
        g = GridSpec()
        assert g.c_grid == tuple(10.0**i for i in range(-6, 7))
        assert g.sigma_grid == g.c_grid
        assert len(g.a_grid) == 51 and g.a_grid[0] == 0.0 and g.a_grid[-1] == 5.0
        assert len(g.lambda_grid) == 20 and g.lambda_grid[0] == 0.1 and g.lambda_grid[-1] == 2.0
        assert g.tau_grid == (0.0, 0.3, 0.5, 0.7, 0.9)

    def test_validation_drops_a_zero_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = GridSpec().validated()
        assert 0.0 not in g.a_grid and len(g.a_grid) == 50


class TestGridSearch:
    def _small_grid(self, **kw):
        base = dict(c_grid=(30.0,), sigma_grid=(0.3,), a_grid=(0.5,), lambda_grid=(1.0,))
        base.update(kw)
        return GridSpec(**base)

    def test_empty_grid_rejected(self, separable, monkeypatch):
        monkeypatch.setattr(harness, "gram_matrix", lambda *a: pytest.fail("a Gram was built"))
        ds, plan = separable
        with pytest.raises(ParameterError, match="the C grid is empty"):
            grid_search_models(ds, [expsat_config()], self._small_grid(c_grid=()), plan)
        # a = 0 is dropped, which leaves the a grid empty
        with pytest.raises(ParameterError, match="the a grid is empty"):
            grid_search_models(ds, [expsat_config()], self._small_grid(a_grid=(0.0,)), plan)
        # axes a loss does not search are checked as well
        with pytest.raises(ParameterError, match="the a grid is empty"):
            grid_search_models(ds, [hinge_config()], self._small_grid(a_grid=(0.0,)), plan)
        with pytest.raises(ParameterError, match="the tau grid contains the non-finite value inf"):
            grid_search_models(ds, [expsat_config()], self._small_grid(tau_grid=(np.inf,)), plan)
        # dropping a <= 0 keeps non-finite values for the check to reject
        with pytest.raises(ParameterError, match="the a grid contains the non-finite value -inf"):
            grid_search_models(ds, [expsat_config()], self._small_grid(a_grid=(1.0, -np.inf)), plan)

    def test_single_point_grid(self, separable):
        ds, plan = separable
        res = grid_search_models(ds, [expsat_config()], self._small_grid(), plan)[0]
        assert res.best_params == {"C": 30.0, "sigma": 0.3, "a": 0.5, "lam": 1.0}
        assert res.mean_accuracy == 100.0
        assert res.model == "expsat"
        assert res.train_time_seconds > 0

    def test_tie_breaks_toward_smaller_params(self, separable):
        ds, plan = separable
        res = grid_search_models(ds, [expsat_config()], self._small_grid(c_grid=(50.0, 30.0)), plan)[0]
        # both C values reach 100.0; the smaller C wins the tie
        assert res.best_params["C"] == 30.0

    def test_result_invariant_to_grid_order(self, separable):
        ds, plan = separable
        g1 = self._small_grid(c_grid=(30.0, 50.0), sigma_grid=(0.3, 0.2))
        g2 = self._small_grid(c_grid=(50.0, 30.0), sigma_grid=(0.2, 0.3))
        r1 = grid_search_models(ds, [expsat_config()], g1, plan)[0]
        r2 = grid_search_models(ds, [expsat_config()], g2, plan)[0]
        assert r1.best_params == r2.best_params
        assert r1.per_fold_accuracies == r2.per_fold_accuracies

    def test_coarse_grid_finds_separable_regime(self, separable):
        ds, plan = separable
        grid = self._small_grid(c_grid=(0.01, 30.0, 1000.0), sigma_grid=(0.003, 0.3, 300.0))
        res = grid_search_models(ds, [expsat_config()], grid, plan)[0]
        assert res.mean_accuracy >= 95.0
        assert res.best_params["sigma"] == 0.3

    def test_baseline_label_and_grid_axes(self, separable):
        ds, plan = separable
        res = grid_search_models(ds, [hinge_config()], self._small_grid(c_grid=(30.0,)), plan)[0]
        assert res.model == "hinge (NAG)"
        assert set(res.best_params) == {"C", "sigma"}

    def test_mean_equals_stored_folds(self, separable):
        ds, plan = separable
        res = grid_search_models(ds, [expsat_config()], self._small_grid(), plan)[0]
        assert res.mean_accuracy == pytest.approx(np.mean(res.per_fold_accuracies), abs=1e-9)


class TestSensitivitySweep:
    def test_single_cell(self, separable):
        ds, plan = separable
        rows = sensitivity_sweep(ds, expsat_config(), [0.5], [1.0], plan)
        assert len(rows) == 1
        assert rows[0][:2] == (0.5, 1.0)

    def test_cell_matches_grid_search_best(self, separable):
        ds, plan = separable
        grid = GridSpec(c_grid=(30.0,), sigma_grid=(0.3,), a_grid=(0.5,), lambda_grid=(1.0,))
        res = grid_search_models(ds, [expsat_config()], grid, plan)[0]
        rows = sensitivity_sweep(ds, expsat_config(), [0.5], [1.0], plan)
        assert rows[0][2] == res.mean_accuracy

    def test_grid_shape(self, separable):
        ds, plan = separable
        rows = sensitivity_sweep(ds, expsat_config(), [0.5, 1.0], [1.0, 2.0], plan)
        assert len(rows) == 4
        assert all(acc >= 90.0 for _, _, acc in rows)

    def test_requires_saturating_loss(self, separable):
        ds, plan = separable
        with pytest.raises(ParameterError):
            sensitivity_sweep(ds, hinge_config(), [0.5], [1.0], plan)


class TestRobustnessSuite:
    def test_rate_zero_equals_clean_cv(self, separable):
        ds, plan = separable
        cfg = expsat_config()
        rows, _ = robustness_suite(ds, [("expsat", cfg)], rates=(0.0,),
                                   mode=CorruptionMode.OUTLIERS, plan=plan, seed=5)
        assert rows[0].per_fold_accuracies == _ref_cross_validate(ds, cfg, plan)[2]

    def test_table_shape_and_averages(self, separable):
        ds, plan = separable
        models = [("expsat", expsat_config()), ("hinge (NAG)", hinge_config())]
        rows, averages = robustness_suite(ds, models, rates=(0.05, 0.1, 0.2, 0.3),
                                          mode=CorruptionMode.LABEL_NOISE, plan=plan, seed=5)
        assert len(rows) == 8
        for name, _ in models:
            mine = [r.mean_accuracy for r in rows if r.model == name]
            assert len(mine) == 4
            assert averages[name] == pytest.approx(np.mean(mine))

    def test_non_finite_factor(self, separable):
        ds, plan = separable
        with pytest.raises(ParameterError, match="factor must be finite"):
            robustness_suite(ds, [("expsat", expsat_config())], rates=(0.2,), plan=plan, factor=float("inf"))

    def test_non_finite_factor_under_label_noise(self, separable):
        ds, plan = separable
        with pytest.raises(ParameterError, match="factor must be finite"):
            robustness_suite(ds, [("expsat", expsat_config())], rates=(0.2,), mode=CorruptionMode.LABEL_NOISE,
                             plan=plan, factor=float("nan"))

    def test_dataset_untouched(self, separable):
        ds, plan = separable
        X_before = ds.X.copy()
        y_before = ds.y.copy()
        robustness_suite(ds, [("expsat", expsat_config())], rates=(0.3,),
                         mode=CorruptionMode.OUTLIERS, plan=plan, seed=5)
        assert (ds.X == X_before).all() and (ds.y == y_before).all()

    def test_deterministic(self, separable):
        ds, plan = separable
        models = [("expsat", expsat_config())]
        r1, _ = robustness_suite(ds, models, rates=(0.2,), mode=CorruptionMode.OUTLIERS,
                                 plan=plan, seed=5)
        r2, _ = robustness_suite(ds, models, rates=(0.2,), mode=CorruptionMode.OUTLIERS,
                                 plan=plan, seed=5)
        assert r1 == r2

    def test_outlier_run_stays_close_to_clean(self, separable):
        ds, plan = separable
        rows, _ = robustness_suite(ds, [("expsat", expsat_config())], rates=(0.0, 0.1),
                                   mode=CorruptionMode.OUTLIERS, plan=plan, seed=5)
        clean, outliers = rows
        assert outliers.mean_accuracy >= clean.mean_accuracy - 2.0

    def test_median_robustness_over_ten_seeds(self):
        # saturating loss under 10% training outliers: no worse than the
        # hinge baseline minus 2 points, and within 1 point of its own
        # clean run, both as medians over 10 seeds
        clean, sat, hinge = [], [], []
        for seed in range(10):
            ds = separable_dataset(seed=seed)
            plan = make_folds(ds.n, 5, seed=seed)
            cfg_e, cfg_h = expsat_config(seed=seed), hinge_config(seed=seed)
            rows, _ = robustness_suite(ds, [("e", cfg_e), ("h", cfg_h)], rates=(0.0, 0.1),
                                       mode=CorruptionMode.OUTLIERS, plan=plan, seed=seed)
            clean.append([r.mean_accuracy for r in rows if r.model == "e" and r.rate == 0.0][0])
            sat.append([r.mean_accuracy for r in rows if r.model == "e" and r.rate == 0.1][0])
            hinge.append([r.mean_accuracy for r in rows if r.model == "h" and r.rate == 0.1][0])
        assert np.median(sat) >= np.median(hinge) - 2.0
        assert abs(np.median(sat) - np.median(clean)) <= 1.0


class TestModelLabel:
    def test_labels(self):
        assert model_label(expsat_config()) == "expsat"
        assert model_label(hinge_config()) == "hinge (NAG)"


# Frozen copy of the harness as it was before the shared evaluation loop:
# every candidate cross-validated on its own, every fit building its own
# Gram matrix. The shared loop must reproduce it bit for bit.


def _ref_fit_and_score(train, test, config):
    model = fit(config, train.X, train.y)
    return accuracy(sign_labels(decision_values(model, test.X)), test.y)


def _ref_fold_config(config, fold):
    return replace(config, seed=child_seed(config.seed, f"batches/fold={fold}"))


def _ref_summary(per_fold):
    accs = np.asarray(per_fold, dtype=float)
    return float(accs.mean()), float(accs.std()), tuple(float(a) for a in accs)


def _ref_cross_validate(ds, config, plan):
    per_fold = []
    for f in range(plan.k):
        train = ds.subset(plan.train_indices(f))
        test = ds.subset(plan.fold_indices(f))
        per_fold.append(_ref_fit_and_score(train, test, _ref_fold_config(config, f)))
    return _ref_summary(per_fold)


def _ref_candidates(kind, grid):
    cs, sigmas = sorted(grid.c_grid), sorted(grid.sigma_grid)
    if kind is LossKind.EXPSAT:
        return [{"C": c, "sigma": s, "a": a, "lam": lam} for c in cs for s in sigmas
                for a in sorted(grid.a_grid) for lam in sorted(grid.lambda_grid)]
    if kind in (LossKind.PINBALL, LossKind.TRUNCATED_PINBALL):
        return [{"C": c, "sigma": s, "tau": t} for c in cs for s in sigmas for t in sorted(grid.tau_grid)]
    return [{"C": c, "sigma": s} for c in cs for s in sigmas]


def _ref_apply(config, params):
    loss = config.loss
    if "a" in params or "lam" in params:
        loss = replace(loss, a=params.get("a", loss.a), lam=params.get("lam", loss.lam))
    if "tau" in params:
        loss = replace(loss, tau=params["tau"])
    kernel = replace(config.kernel, sigma=params.get("sigma", config.kernel.sigma))
    return replace(config, C=params.get("C", config.C), loss=loss, kernel=kernel)


def _ref_grid_search(ds, config, grid, plan):
    best = None
    for params in _ref_candidates(config.loss.kind, grid.validated()):
        cv = _ref_cross_validate(ds, _ref_apply(config, params), plan)
        key = (-cv[0], tuple(params.get(k, 0.0) for k in ("C", "sigma", "a", "lam", "tau")))
        if best is None or key < best[0]:
            best = (key, params, cv)
    return best[1], best[2]


def _ref_robustness(ds, models, rates, mode, plan, factor, seed):
    rows = []
    for rate in rates:
        folds = []
        for f in range(plan.k):
            cseed = child_seed(seed, f"corruption/rate={rate}/fold={f}")
            train = ds.subset(plan.train_indices(f))
            if rate != 0.0 and mode is CorruptionMode.OUTLIERS:
                train, _ = inject_outliers(train, float(rate), factor=factor, seed=cseed)
            elif rate != 0.0:
                train, _ = inject_label_noise(train, float(rate), seed=cseed)
            folds.append((train, ds.subset(plan.fold_indices(f))))
        for name, config in models:
            per_fold = [_ref_fit_and_score(train, test, _ref_fold_config(config, f))
                        for f, (train, test) in enumerate(folds)]
            rows.append((name, float(rate), *_ref_summary(per_fold)))
    return rows


def _overlapping(seed, normalized=True):
    ds = two_cluster_dataset(n=60, m=3, separation=2.0, spread=1.0, seed=seed)
    return normalize(ds) if normalized else ds


REF_GRID = GridSpec(c_grid=(10.0, 0.5), sigma_grid=(2.0, 0.5), a_grid=(2.0, 0.5),
                    lambda_grid=(1.0,), tau_grid=(0.7, 0.3))
REF_LOSSES = [LossSpec.expsat(1.0, 1.0), LossSpec.hinge(), LossSpec.pinball(0.5),
              LossSpec.truncated_hinge(2.0)]


class TestMatchesPerCandidateReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("loss", REF_LOSSES, ids=lambda spec: spec.kind.value)
    def test_grid_search(self, seed, loss):
        ds = _overlapping(seed)
        plan = make_folds(ds.n, 5, seed=seed)
        config = TrainerConfig(loss=loss, seed=seed)
        res = grid_search_models(ds, [config], REF_GRID, plan)[0]
        assert (res.best_params, (res.mean_accuracy, res.std_accuracy, res.per_fold_accuracies)) == \
            _ref_grid_search(ds, config, REF_GRID, plan)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_linear_kernel_on_unscaled_features(self, seed):
        raw = _overlapping(seed, normalized=False)
        plan = make_folds(raw.n, 5, seed=seed)
        for loss in REF_LOSSES[:2]:
            config = TrainerConfig(loss=loss, kernel=KernelSpec.linear(), max_iters=200, seed=seed)
            res = grid_search_models(raw, [config], REF_GRID, plan)[0]
            assert (res.best_params, (res.mean_accuracy, res.std_accuracy, res.per_fold_accuracies)) == \
                _ref_grid_search(raw, config, REF_GRID, plan)
            cv = _cross_validate(raw, config, plan)
            assert (cv.mean_accuracy, cv.std_accuracy, cv.per_fold_accuracies) == \
                _ref_cross_validate(raw, config, plan)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sensitivity_sweep(self, seed):
        ds = _overlapping(seed)
        plan = make_folds(ds.n, 5, seed=seed)
        config = TrainerConfig(C=10.0, kernel=KernelSpec.gaussian(0.5), seed=seed)
        a_grid, lambda_grid = [0.5, 1, 3.0], [0.5, 2.0]
        want = [(float(a), float(lam), _ref_cross_validate(
                    ds, replace(config, loss=replace(config.loss, a=a, lam=lam)), plan)[0])
                for a in a_grid for lam in lambda_grid]
        assert sensitivity_sweep(ds, config, a_grid, lambda_grid, plan) == want

    @pytest.mark.parametrize("mode", list(CorruptionMode))
    @pytest.mark.parametrize("seed", [0, 6])
    def test_robustness_suite(self, mode, seed):
        ds = _overlapping(seed)
        plan = make_folds(ds.n, 5, seed=seed)
        models = [
            ("e", TrainerConfig(C=10.0, kernel=KernelSpec.gaussian(0.5), seed=seed)),
            ("h", TrainerConfig(C=10.0, loss=LossSpec.hinge(), kernel=KernelSpec.gaussian(0.5), seed=seed)),
            ("p", TrainerConfig(loss=LossSpec.pinball(0.3), kernel=KernelSpec.linear(), seed=seed + 1)),
        ]
        rates = (0.0, 0.1, 0.3)
        rows, averages = robustness_suite(ds, models, rates=rates, mode=mode, plan=plan, factor=5.0,
                                          seed=seed)
        want = _ref_robustness(ds, models, rates, mode, plan, 5.0, seed)
        assert [(r.model, r.rate, r.mean_accuracy, r.std_accuracy, r.per_fold_accuracies)
                for r in rows] == want
        assert averages == {name: float(np.mean([w[2] for w in want if w[0] == name]))
                            for name, _ in models}


class TestGramReuse:
    def test_one_gram_per_fold_and_kernel(self, monkeypatch):
        built, alive = [], []
        real = harness.gram_matrix

        def counting(spec, X, *distances):
            assert all(ref() is None for ref in alive), "an earlier fold Gram is still alive"
            K = real(spec, X, *distances)
            built.append(spec)
            alive.append(weakref.ref(K))
            return K

        monkeypatch.setattr(harness, "gram_matrix", counting)
        monkeypatch.setattr(trainer, "gram_matrix", lambda *a: pytest.fail("fit built its own Gram"))
        ds = _overlapping(0)
        plan = make_folds(ds.n, 5, seed=0)
        # 2 C x 2 sigma x 2 a x 1 lam candidates: one Gram per (fold, sigma), one for the refit
        grid_search_models(ds, [TrainerConfig()], REF_GRID, plan)
        assert len(built) == 5 * 2 + 1
        built.clear()
        sensitivity_sweep(ds, TrainerConfig(), [0.5, 1.0], [0.5, 1.0], plan)
        assert len(built) == 5
        built.clear()
        models = [("a", TrainerConfig()), ("b", TrainerConfig(C=5.0)),
                  ("c", TrainerConfig(kernel=KernelSpec.gaussian(0.5)))]
        robustness_suite(ds, models, rates=(0.1, 0.2), plan=plan)
        assert len(built) == 2 * 5 * 2

    def test_one_gram_per_fold_and_kernel_on_workers(self, monkeypatch):
        # the workers hold no fold's Gram once a call returns
        with forced_workers(2):
            self.test_one_gram_per_fold_and_kernel(monkeypatch)


def _spy(monkeypatch, module, name, calls):
    """Wrap ``module.name`` to append the first argument of every call to ``calls``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *a, **k: calls.append(first) or real(first, *a, **k))


def _chunked(folds, configs, budget: int):
    """``_evaluate`` at a ``COLUMN_BYTES`` of ``budget``: its accuracies,
    and the columns, betas and test-part decision values of every chunk
    that ``fit_columns`` yields, in order."""
    chunks, scores = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "COLUMN_BYTES", budget)
        fit_columns, kernel_product = harness.fit_columns, harness.kernel_product

        def recording(*a, **k):
            for chunk in fit_columns(*a, **k):
                chunks.append(chunk)
                yield chunk

        mp.setattr(harness, "fit_columns", recording)
        mp.setattr(harness, "kernel_product", lambda *a: scores.append(kernel_product(*a)) or scores[-1])
        accs = harness._evaluate(folds, configs)
    return accs, [cols for cols, _ in chunks], [beta for _, beta in chunks], scores


def _same_columns(a: list, b: list) -> bool:
    """Whether two lists of chunks hold the same columns, bit for bit, once
    each list's chunks of one (fold, configuration) are put side by side."""
    return np.hstack(a).tobytes() == np.hstack(b).tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(50, 2048), B=st.integers(1, 72), k=st.integers(1, 4), linear=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=2048, B=64, k=1, linear=False, seed=0)
@example(n=2000, B=41, k=2, linear=True, seed=1)
def _chunk_width_keeps_the_bits(n, B, k, linear, seed):
    """The premise of fit_columns's chunks on this BLAS: a batch's betas,
    and the test-part decision values ``_evaluate`` scores them by, are
    the same bits whether its columns train in chunks of 8k columns or in
    one chunk (each with the last B mod 8 columns apart). Where this
    fails, a grid's results depend on ``trainer.COLUMN_BYTES`` and the
    training-part size."""
    rng = np.random.default_rng(seed)
    ds = two_cluster_dataset(n=n + 24, m=4, separation=2.0, spread=1.0, seed=seed)
    train, test = ds.subset(np.arange(n)), ds.subset(np.arange(n, n + 24))
    kernel = KernelSpec.linear() if linear else KernelSpec.gaussian(0.7)
    config = harness._columns(TrainerConfig(kernel=kernel, max_iters=4, seed=seed),
                              [("C", np.exp(rng.uniform(-5.0, 7.0, B)))])
    whole_budget, split_budget = 8 * n * 1024, 8 * n * COLUMN_GROUP * k
    runs = []
    for budget in (whole_budget, split_budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "COLUMN_BYTES", budget)
            runs.append(list(trainer.fit_columns(config, train.X, train.y)))
    whole, split = ([(cols.start, cols.stop) for cols, _ in run] for run in runs)
    assert [lo for lo, _ in split] == [0, *(hi for _, hi in split[:-1])] and split[-1][1] == B
    assert max(hi - lo for lo, hi in split) <= COLUMN_GROUP * k and len(whole) <= 2
    assert _same_columns([beta for _, beta in runs[1]], [beta for _, beta in runs[0]])
    scored_whole = _chunked([(train, test)], [config], whole_budget)
    scored_split = _chunked([(train, test)], [config], split_budget)
    assert _same_columns(scored_split[3], scored_whole[3])
    assert scored_split[0][0].tobytes() == scored_whole[0][0].tobytes()


def test_chunk_width_keeps_the_bits():
    """Run in a child process at one BLAS thread: with more, OpenBLAS's
    Haswell and Zen cores broke the property at 2 threads (n = 169,
    B = 24), though not its SkylakeX core."""
    subprocess.run([sys.executable, "-c", "import test_harness; test_harness._chunk_width_keeps_the_bits()"],
                   env=one_blas_thread_env(), check=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(20, 300), B=st.integers(1, 40), linear=st.booleans(), seed=st.integers(0, 2**32 - 1),
       subsets=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)), min_size=1, max_size=3))
@example(n=64, B=13, linear=False, seed=1, subsets=[(0, 0), (1, 1)])
def _columns_keep_their_bits_in_any_batch(n, B, linear, seed, subsets):
    """A candidate's betas, and the test-part decision values and
    accuracies ``_evaluate`` gives it, are the bits of the full batch's
    in any random subset of the batch's columns, in any order, trained at
    the default budget or in chunks of 8, 16 or 24 columns."""
    rng = np.random.default_rng(seed)
    ds = two_cluster_dataset(n=n + 24, m=4, separation=2.0, spread=1.0, seed=seed)
    folds = [(ds.subset(np.arange(n)), ds.subset(np.arange(n, n + 24)))]
    base = TrainerConfig(kernel=KernelSpec.linear() if linear else KernelSpec.gaussian(0.7), seed=seed)
    C, a = np.exp(rng.uniform(-5.0, 7.0, B)), rng.uniform(0.1, 5.0, B)
    full = _chunked(folds, [apply_params(base, {"C": C, "a": a})], trainer.COLUMN_BYTES)
    betas, scores = np.hstack(full[2]), np.hstack(full[3])
    for subset_seed, groups in subsets:
        prng = np.random.default_rng(subset_seed)
        pick = prng.permutation(B)[: prng.integers(1, B + 1)]
        budget = 8 * n * COLUMN_GROUP * groups if groups else trainer.COLUMN_BYTES
        part = _chunked(folds, [apply_params(base, {"C": C[pick], "a": a[pick]})], budget)
        assert np.hstack(part[2]).tobytes() == np.ascontiguousarray(betas[:, pick]).tobytes()
        assert np.hstack(part[3]).tobytes() == np.ascontiguousarray(scores[:, pick]).tobytes()
        assert part[0][0].tobytes() == full[0][0][pick].tobytes()


def test_columns_keep_their_bits_in_any_batch():
    """At one BLAS thread in a child process, as
    :func:`test_chunk_width_keeps_the_bits`."""
    subprocess.run([sys.executable, "-c", "import test_harness; test_harness._columns_keep_their_bits_in_any_batch()"],
                   env=one_blas_thread_env(), check=True)


class TestBatchedEvaluation:
    def test_split_chunks_match_one_chunk(self):
        ds = _overlapping(1)
        folds = harness._plan_folds(ds, make_folds(ds.n, 5, seed=1))
        grid = GridSpec(c_grid=(10.0, 0.5, 3.0), sigma_grid=(2.0, 0.5), a_grid=(2.0, 0.5, 1.0),
                        lambda_grid=(1.0, 0.5))
        _, configs = harness._grid_columns(TrainerConfig(seed=1), grid.validated())
        # 18 columns per (fold, sigma): one chunk at the default budget, and
        # 8, 8 and 2 at a budget of 8 columns of 48 coefficients
        whole = _chunked(folds, configs, trainer.COLUMN_BYTES)
        split = _chunked(folds, configs, 8 * 48 * 8)
        assert whole[1] == [slice(0, 18)] * 2 * 5
        assert split[1] == [slice(0, 8), slice(8, 16), slice(16, 18)] * 2 * 5
        for i in range(2 * 5):
            assert _same_columns(split[2][3 * i : 3 * i + 3], whole[2][i : i + 1])
            assert _same_columns(split[3][3 * i : 3 * i + 3], whole[3][i : i + 1])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(split[0], whole[0]))

    @pytest.mark.parametrize("kernel", [KernelSpec.gaussian(0.7), KernelSpec.linear()], ids=["gaussian", "linear"])
    def test_one_column_scores_are_the_bits_of_decision_values(self, kernel, monkeypatch):
        from satsvm.kernel import block_rows

        ds = two_cluster_dataset(n=400, m=10, seed=3)
        folds = harness._plan_folds(ds, make_folds(ds.n, 5, seed=3))
        # each test part spans two kernel blocks
        assert all(block_rows(len(train.X)) < len(test.X) for train, test in folds)
        real = harness.kernel_product
        scored = []
        monkeypatch.setattr(harness, "kernel_product", lambda *a: scored.append(real(*a)) or scored[-1])
        config = TrainerConfig(C=10.0, kernel=kernel, seed=3)
        harness._evaluate(folds, [config])
        assert len(scored) == len(folds)
        for f, (train, test) in enumerate(folds):
            model = fit(harness._fold_config(config, f), train.X, train.y)
            assert scored[f].tobytes() == decision_values(model, test.X).tobytes()

    def test_linear_kernel_trains_each_sigma_once(self, monkeypatch):
        ds = _overlapping(3)
        plan = make_folds(ds.n, 5, seed=3)
        grid = GridSpec(c_grid=(10.0, 0.5), sigma_grid=(0.3, 1.0, 3.0), a_grid=(2.0, 0.5), lambda_grid=(1.0,))
        config = TrainerConfig(kernel=KernelSpec.linear(), max_iters=200, seed=3)
        want = _ref_grid_search(ds, config, grid, plan)
        built, chunks = [], []
        _spy(monkeypatch, harness, "gram_matrix", built)
        _spy(monkeypatch, harness, "fit_columns", chunks)
        res = grid_search_models(ds, [config], grid, plan)[0]
        # one Gram per fold and one for the refit; one column per distinct (C, a, lam) per fold
        assert len(built) == 5 + 1
        assert [c.columns for c in chunks] == [2 * 2] * 5
        assert (res.best_params, (res.mean_accuracy, res.std_accuracy, res.per_fold_accuracies)) == want
        assert res.best_params["sigma"] == 0.3

    def test_each_configuration_trains_as_its_own_batch(self, monkeypatch):
        ds = _overlapping(4)
        plan = make_folds(ds.n, 5, seed=4)
        folds = harness._plan_folds(ds, plan)
        # the same settings but C: one fit_columns call each per fold, and
        # each batch of one column gives the bits of a separate fit
        configs = [TrainerConfig(seed=4), TrainerConfig(C=5.0, seed=4)]
        chunks = []
        _spy(monkeypatch, harness, "fit_columns", chunks)
        per_fold = harness._evaluate(folds, configs)
        assert [c.C for c in chunks] == [1.0, 5.0] * 5
        for config, accs in zip(configs, per_fold):
            assert _ref_summary(accs[0]) == _ref_cross_validate(ds, config, plan)

    def test_repeated_grid_values_train_once(self, monkeypatch):
        ds = _overlapping(5)
        plan = make_folds(ds.n, 5, seed=5)
        config = TrainerConfig(seed=5)
        distinct = GridSpec(c_grid=(1.0, 30.0), sigma_grid=(0.5,), a_grid=(2.0, 0.5), lambda_grid=(1.0,))
        want = grid_search_models(ds, [config], distinct, plan)[0]
        built, chunks = [], []
        _spy(monkeypatch, harness, "gram_matrix", built)
        _spy(monkeypatch, harness, "fit_columns", chunks)
        repeated = GridSpec(c_grid=(1.0, 1.0, 30.0), sigma_grid=(0.5, 0.5), a_grid=(2.0, 0.5, 2.0),
                            lambda_grid=(1.0, 1.0))
        res = grid_search_models(ds, [config], repeated, plan)[0]
        # one Gram per fold and one for the refit; one column per distinct (C, a, lam) per fold
        assert len(built) == 5 + 1
        assert [c.columns for c in chunks] == [2 * 2] * 5
        assert replace(res, train_time_seconds=0.0) == replace(want, train_time_seconds=0.0)

    def test_invalid_grid_value_raises_before_training(self, monkeypatch):
        monkeypatch.setattr(harness, "gram_matrix", lambda *a: pytest.fail("a Gram was built"))
        monkeypatch.setattr(harness, "fit_columns", lambda *a, **k: pytest.fail("a candidate was trained"))
        ds = _overlapping(0)
        plan = make_folds(ds.n, 5, seed=0)
        small = dict(c_grid=(1.0,), sigma_grid=(1.0,), a_grid=(1.0,), lambda_grid=(1.0,))
        with pytest.raises(ParameterError, match="lam > 0"):
            grid_search_models(ds, [TrainerConfig()], GridSpec(**{**small, "lambda_grid": (1.0, -0.5)}), plan)
        # an invalid value of a later model stops the earlier models as well
        with pytest.raises(ParameterError, match="tau"):
            grid_search_models(ds, [TrainerConfig(), TrainerConfig(loss=LossSpec.pinball(0.5))],
                               GridSpec(**small, tau_grid=(0.5, 1.5)), plan)
        with pytest.raises(ParameterError, match="a > 0"):
            sensitivity_sweep(ds, TrainerConfig(), [1.0, -2.0], [1.0], plan)
        with pytest.raises(ParameterError, match="a grid contains the non-finite value inf"):
            sensitivity_sweep(ds, TrainerConfig(), [1.0, np.inf], [1.0], plan)
        with pytest.raises(ParameterError, match="lam grid contains the non-finite value nan"):
            sensitivity_sweep(ds, TrainerConfig(), [1.0], [np.nan], plan)

    def test_empty_sweep_axis_raises_before_any_gram(self, monkeypatch):
        monkeypatch.setattr(harness, "gram_matrix", lambda *a: pytest.fail("a Gram was built"))
        monkeypatch.setattr(harness, "kernel_product", lambda *a: pytest.fail("a fold was scored"))
        ds = _overlapping(0)
        plan = make_folds(ds.n, 5, seed=0)
        with pytest.raises(ParameterError, match="a grid is empty"):
            sensitivity_sweep(ds, TrainerConfig(), [], [1.0], plan)
        with pytest.raises(ParameterError, match="lam grid is empty"):
            sensitivity_sweep(ds, TrainerConfig(), [1.0], [], plan)

    def test_single_configuration_callers_reject_columns(self, separable):
        ds, plan = separable
        batched = replace(expsat_config(), C=np.array([1.0, 30.0]))
        with pytest.raises(ParameterError, match="one C"):
            robustness_suite(ds, [("e", batched)], rates=(0.1,), plan=plan)

    def test_models_share_each_fold_gram(self, monkeypatch):
        ds = _overlapping(2)
        plan = make_folds(ds.n, 5, seed=2)
        configs = [TrainerConfig(seed=2), TrainerConfig(loss=LossSpec.hinge(), seed=3),
                   TrainerConfig(loss=LossSpec.pinball(0.5), kernel=KernelSpec.gaussian(0.7), seed=4)]
        alone = [grid_search_models(ds, [config], REF_GRID, plan)[0] for config in configs]
        built = []
        _spy(monkeypatch, harness, "gram_matrix", built)
        together = grid_search_models(ds, configs, REF_GRID, plan)
        # one Gram per (fold, sigma) for all three models, one refit each
        assert len(built) == 5 * 2 + 3

        def summary(results):
            return [(r.model, r.best_params, r.mean_accuracy, r.std_accuracy, r.per_fold_accuracies)
                    for r in results]

        assert summary(together) == summary(alone)


class TestFoldMemory:
    def test_capacity_checked_before_any_fold(self, monkeypatch):
        import satsvm.kernel as kernel

        calls = []
        _spy(monkeypatch, harness, "gram_matrix", calls)
        _spy(monkeypatch, harness, "fit_columns", calls)
        small = GridSpec(c_grid=(1.0,), sigma_grid=(1.0,), a_grid=(1.0,), lambda_grid=(1.0,))
        # folds train on 96 of 120 rows: only the refit's Gram is past the cap
        ds = two_cluster_dataset(n=120, m=2, seed=0)
        monkeypatch.setattr(kernel, "GRAM_CAPACITY", 100)
        with pytest.raises(CapacityError, match="n=120"):
            grid_search_models(ds, [TrainerConfig()], small, make_folds(ds.n, 5, seed=0))
        assert calls == []
        # training parts of 97, 97, 98, 98 and 98 rows: fold 2 is the first past the cap
        ds = two_cluster_dataset(n=122, m=2, seed=0)
        monkeypatch.setattr(kernel, "GRAM_CAPACITY", 97)
        with pytest.raises(CapacityError, match="n=98"):
            _cross_validate(ds, TrainerConfig(), make_folds(ds.n, 5, seed=0))
        assert calls == []

    def test_one_gram_alive_per_fold(self, monkeypatch):
        ds = two_cluster_dataset(n=400, m=10, seed=0)
        folds = harness._plan_folds(ds, make_folds(ds.n, 5, seed=0))
        configs = [TrainerConfig(kernel=KernelSpec.gaussian(sigma)) for sigma in (0.5, 2.0)]
        gram_bytes = 8 * 320 * 320
        real = harness.fit_columns
        traced = []

        def recording(*a, **k):
            traced.append(tracemalloc.get_traced_memory()[0])
            return real(*a, **k)

        monkeypatch.setattr(harness, "fit_columns", recording)
        tracemalloc.start()
        try:
            harness._evaluate(folds, configs)
        finally:
            tracemalloc.stop()
        # the fold's Gram alone: no test block and no second n-by-n matrix
        assert len(traced) == 5 * 2
        assert max(traced) < 1.1 * gram_bytes
