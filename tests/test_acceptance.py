"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances and runtime budgets are asserted as stated; nothing is
deferred to later calibration.
"""

import hashlib
import json
import time

import numpy as np

from conftest import expsat_config, full_gradient, hinge_config, separable_dataset

from satsvm import (
    ConditionalRiskQuery,
    CorruptionMode,
    KernelSpec,
    LossSpec,
    RankTable,
    TrainerConfig,
    apply_scaler,
    calibration_check,
    friedman_F,
    friedman_chi2,
    fit,
    generalization_bound,
    gram_matrix,
    inject_label_noise,
    inject_outliers,
    invert_corruption,
    loss_derivative,
    loss_value,
    make_folds,
    nemenyi_cd,
    nemenyi_report,
    objective,
    robustness_suite,
    two_cluster_dataset,
    write_csv,
)
from satsvm.cli import main as cli_main

LOSS_PARAM_GRID = [(a, lam) for a in (0.5, 1.0, 5.0) for lam in (0.5, 1.0, 2.0)]
U_GRID = (-1.0, 0.0, 0.01, 0.5, 1.0, 3.0)


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_01_loss_fidelity(self):
        t0 = time.perf_counter()
        from mpmath import mp, mpf

        mp.dps = 50

        def oracle(a, lam, u):
            if u <= 0:
                return 0.0
            t = mpf(a) * mpf(u)
            return float(mpf(lam) * (1 - (t + 1) * mp.e**(-t)))

        max_val_err = 0.0
        max_fd_err = 0.0
        h = 1e-6
        for a, lam in LOSS_PARAM_GRID:
            spec = LossSpec.expsat(a, lam)
            for u in U_GRID:
                max_val_err = max(max_val_err, abs(loss_value(spec, u) - oracle(a, lam, u)))
                if u != 0.0:
                    fd = (loss_value(spec, u + h) - loss_value(spec, u - h)) / (2 * h)
                    max_fd_err = max(max_fd_err, abs(loss_derivative(spec, u) - fd))
                else:
                    # the central difference is not a valid oracle at the
                    # origin (curvature jumps there, giving it an O(h)
                    # bias of lam*a^2*h/4 > 1e-6 for a=5); the derivative
                    # is checked for exactness instead
                    assert loss_derivative(spec, 0.0) == 0.0
        assert max_val_err <= 1e-6
        assert max_fd_err <= 1e-6

        rng = np.random.default_rng(1)
        u = rng.uniform(-50.0, 50.0, size=100_000)
        for a, lam in ((0.5, 0.5), (1.0, 1.0), (5.0, 2.0)):
            vals = loss_value(LossSpec.expsat(a, lam), u)
            assert (vals >= 0.0).all() and (vals <= lam).all()
            assert (vals[u <= 0] == 0.0).all()
        elapsed = time.perf_counter() - t0
        _report(1, elapsed < 1.0,
                f"value err {max_val_err:.2e}, fd err {max_fd_err:.2e}, "
                f"bounded/sparse on 1e5 points, {elapsed:.2f}s < 1s")

    def test_02_pointwise_zero_one_convergence(self):
        gap = abs(loss_value(LossSpec.expsat(100.0, 1.0), 0.5) - 1.0)
        _report(2, gap <= 1e-10, f"|L(a=100, u=0.5) - 1| = {gap:.2e} <= 1e-10")

    def test_03_gradient_matches_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        h = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 11))
            X = rng.standard_normal((n, int(rng.integers(1, 4))))
            y = rng.choice([-1.0, 1.0], size=n)
            beta = 0.7 * rng.standard_normal(n)
            cfg = TrainerConfig(
                C=float(rng.uniform(0.1, 5.0)),
                loss=LossSpec.expsat(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
                kernel=KernelSpec.gaussian(float(rng.uniform(0.5, 2.0))),
            )
            K = gram_matrix(cfg.kernel, X)
            grad = full_gradient(cfg, K, y, beta)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (objective(cfg, K, y, beta + e) - objective(cfg, K, y, beta - e)) / (2 * h)
                worst = max(worst, abs(grad[i] - fd))
        elapsed = time.perf_counter() - t0
        _report(3, worst <= 1e-5 and elapsed < 5.0,
                f"50 instances, max |grad - fd| = {worst:.2e} <= 1e-5, {elapsed:.2f}s < 5s")

    def test_04_statistical_reproduction(self):
        t0 = time.perf_counter()
        fixtures = [
            # mean ranks (baselines..., proposed), D, chi2, F_F, CD, significance flags
            ((3.35, 2.96, 3.96, 4.45, 4.12, 2.16), 79, 81.442, 20.26, 0.85,
             (True, False, True, True, True)),
            ((3.86, 3.63, 3.31, 6.0, 3.14, 1.06), 32, 114.43, 77.844, 1.33,
             (True, True, True, True, True)),
            ((4.22, 3.47, 3.72, 4.59, 3.63, 1.38), 16, 28.969, 8.515, 1.88,
             (True, True, True, True, True)),
        ]
        for ranks, D, chi2_want, ff_want, cd_want, sig_want in fixtures:
            table = RankTable.from_mean_ranks(ranks, D=D)
            chi2 = friedman_chi2(table)
            ff = friedman_F(chi2, D, 6)
            cd = nemenyi_cd(6, D)
            assert abs(chi2 - chi2_want) <= 0.05, (D, chi2)
            assert abs(ff - ff_want) <= 0.01, (D, ff)
            assert abs(cd - cd_want) <= 0.005, (D, cd)
            _, sig = nemenyi_report(table, cd)
            assert tuple(sig[:5, 5]) == sig_want, (D, sig[:5, 5])
        elapsed = time.perf_counter() - t0
        _report(4, elapsed < 1.0,
                f"chi2/F_F/CD and significance flags reproduced for all three tables, "
                f"{elapsed:.2f}s < 1s")

    def test_05_calibration_sweep(self):
        t0 = time.perf_counter()
        p_values = [round(0.10 + 0.05 * i, 2) for i in range(8)]
        p_values += [round(0.55 + 0.05 * i, 2) for i in range(8)]
        assert len(p_values) == 16
        params = [(a, lam) for a in (0.5, 1.0, 2.0, 5.0) for lam in (0.5, 1.0, 1.5, 2.0)]
        assert len(params) == 16
        checked = 0
        for a, lam in params:
            for P in p_values:
                q = ConditionalRiskQuery(loss=LossSpec.expsat(a, lam), P=P)
                result = calibration_check(q)
                assert result.sign_matches_bayes, (a, lam, P, result.f_star)
                checked += 1
        elapsed = time.perf_counter() - t0
        _report(5, checked == 256 and elapsed < 30.0,
                f"grid-minimizer sign matches Bayes sign on all {checked} sweep points, "
                f"{elapsed:.2f}s < 30s")

    def test_06_end_to_end_training(self):
        t0 = time.perf_counter()
        ds = separable_dataset(seed=5)
        cfg = expsat_config(seed=5)
        # supplement-default optimizer constants
        assert (cfg.beta0, cfg.v0, cfg.alpha0, cfg.eta, cfg.r, cfg.max_iters) == \
            (0.01, 0.01, 0.1, 0.1, 0.6, 1000)
        assert cfg.batch_size is None  # resolves to 32 for n >= 100
        centroid_gap = np.linalg.norm(
            ds.X[ds.y == 1.0].mean(axis=0) - ds.X[ds.y == -1.0].mean(axis=0)
        )
        assert centroid_gap >= 4.0 * cfg.kernel.sigma
        (cv,), _ = robustness_suite(ds, [("expsat", cfg)], rates=(0.0,), plan=make_folds(ds.n, 5, seed=5))
        elapsed = time.perf_counter() - t0
        _report(6, cv.mean_accuracy >= 99.0 and elapsed < 10.0,
                f"5-fold mean accuracy {cv.mean_accuracy:.2f}% >= 99%, centroid gap "
                f"{centroid_gap:.2f} >= 4*sigma, {elapsed:.2f}s < 10s")

    def test_07_outlier_robustness(self):
        t0 = time.perf_counter()
        sat_accs, hinge_accs = [], []
        for seed in range(10):
            ds = separable_dataset(seed=seed)
            plan = make_folds(ds.n, 5, seed=seed)
            models = [("expsat", expsat_config(seed=seed)), ("hinge (NAG)", hinge_config(seed=seed))]
            rows, _ = robustness_suite(ds, models, rates=(0.2,), mode=CorruptionMode.OUTLIERS,
                                       plan=plan, seed=seed)
            sat_accs.append([r.mean_accuracy for r in rows if r.model == "expsat"][0])
            hinge_accs.append([r.mean_accuracy for r in rows if r.model == "hinge (NAG)"][0])
        sat_med = float(np.median(sat_accs))
        hinge_med = float(np.median(hinge_accs))
        elapsed = time.perf_counter() - t0
        ok = sat_med >= hinge_med - 2.0 and sat_med >= 90.0 and elapsed < 60.0
        _report(7, ok,
                f"20% outliers, median over 10 seeds: saturating {sat_med:.2f}% vs "
                f"hinge {hinge_med:.2f}% (>= hinge-2 and >= 90), {elapsed:.2f}s < 60s")

    def test_08_cli_manifest_determinism(self, tmp_path, capsys):
        t0 = time.perf_counter()
        data = tmp_path / "clusters.csv"
        write_csv(two_cluster_dataset(n=150, m=2, separation=5.0, spread=0.5, seed=0), data)
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("hinge,pinball,linex,qtself,wave,expsat\n3.35,2.96,3.96,4.45,4.12,2.16\n")
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()

        train_flags = ["--C", "30", "--a", "0.5", "--lam", "1", "--sigma", "0.3"]
        commands = {
            "train": ["train", "--input", str(data), "--seed", "3", *train_flags],
            "predict": None,  # filled in after train
            "grid": ["grid", "--input", str(data), "--seed", "3", "--models", "expsat",
                     "--c-grid", "30", "--sigma-grid", "0.3", "--a-grid", "0.5",
                     "--lambda-grid", "1"],
            "corrupt": ["corrupt", "--input", str(data), "--mode", "outliers",
                        "--rate", "0.1", "--seed", "3"],
            "stats": ["stats", "--input", str(ranks), "--input-kind", "mean-ranks",
                      "--num-datasets", "79"],
            "loss-curve": ["loss-curve", "--loss", "expsat", "--a", "5", "--lam", "1.5",
                           "--u-min", "-2", "--u-max", "3", "--u-step", "0.01"],
            "calibration": ["calibration", "--a", "1", "--lam", "1", "--p", "0.7"],
            "sweep": ["sweep", "--input", str(data), "--seed", "3", "--C", "30",
                      "--sigma", "0.3", "--a-grid", "0.5,1", "--lambda-grid", "1,2"],
        }
        suffix = {"train": "model.json", "predict": "preds.csv", "grid": "grid.csv",
                  "corrupt": "corrupted.csv", "stats": "report.csv",
                  "loss-curve": "curve.csv", "calibration": "risk.csv", "sweep": "sweep.csv"}

        def digest(path, command):
            text = path.read_text()
            if command == "grid":
                # the time_s column is measured wall clock, the one
                # acknowledged non-reproducible output field; mask it
                lines = text.splitlines()
                for i, line in enumerate(lines[1:], start=1):
                    cells = line.split(",")
                    cells[4] = "X"
                    lines[i] = ",".join(cells)
                text = "\n".join(lines)
            return hashlib.sha256(text.encode()).hexdigest()

        for name, argv in commands.items():
            out_a = run_a / suffix[name]
            out_b = run_b / suffix[name]
            if name == "predict":
                argv = ["predict", "--model", str(run_a / "model.json"), "--input", str(data)]
            assert cli_main([*argv, "--output", str(out_a)]) == 0
            manifest = str(out_a) + ".manifest.json"
            assert cli_main([name, "--config", manifest, "--output", str(out_b)]) == 0
            assert digest(out_a, name) == digest(out_b, name), f"{name} outputs differ"
            if name == "corrupt":
                rec_a = json.loads((run_a / "corrupted.csv.record.json").read_text())
                rec_b = json.loads((run_b / "corrupted.csv.record.json").read_text())
                assert rec_a == rec_b
        capsys.readouterr()
        elapsed = time.perf_counter() - t0
        _report(8, elapsed < 10.0,
                f"all 8 subcommands re-run from manifests byte-identically "
                f"(grid time_s masked), {elapsed:.2f}s < 10s")

    def test_09_corruption_audit(self):
        t0 = time.perf_counter()
        ds = separable_dataset(seed=3)
        for rate in (0.05, 0.10, 0.20, 0.30):
            out, rec = inject_outliers(ds, rate, seed=11)
            back = invert_corruption(out, rec)
            assert back.X.tobytes() == ds.X.tobytes()
            assert back.y.tobytes() == ds.y.tobytes()
            noisy, rec = inject_label_noise(ds, rate, seed=13)
            back = invert_corruption(noisy, rec)
            assert back.X.tobytes() == ds.X.tobytes()
            assert back.y.tobytes() == ds.y.tobytes()
        elapsed = time.perf_counter() - t0
        _report(9, elapsed < 1.0,
                f"inject/invert round-trips bit-exact at rates 5/10/20/30%, {elapsed:.2f}s < 1s")

    def test_10_generalization_bound_sanity(self):
        from satsvm import decision_values

        t0 = time.perf_counter()

        def empirical_risk(model, loss, X, y):
            margins = decision_values(model, X)
            return float(np.mean(loss_value(loss, 1.0 - y * margins)))

        held_within = 0
        trials = 40
        for seed in range(trials):
            ds = separable_dataset(seed=seed)
            cfg = expsat_config(seed=seed)
            model = fit(cfg, ds.X, ds.y)
            held_raw = two_cluster_dataset(n=2000, m=2, separation=5.0, spread=0.5,
                                           seed=10_000 + seed)
            held = apply_scaler(held_raw, ds.scaler)
            gap = (empirical_risk(model, cfg.loss, held.X, held.y)
                   - empirical_risk(model, cfg.loss, ds.X, ds.y))
            if gap <= generalization_bound(cfg.loss.lam, ds.n, cfg.C, 0.05):
                held_within += 1
        elapsed = time.perf_counter() - t0
        _report(10, held_within >= 38 and elapsed < 60.0,
                f"risk gap within the bound in {held_within}/40 trials (>= 38), "
                f"{elapsed:.2f}s < 60s")
