import json
import subprocess
import sys

import numpy as np
import pytest

from satsvm import accuracy, two_cluster_dataset, write_csv
from satsvm.cli import main
from satsvm.seeds import child_seed

D1_RANK_CSV = "hinge,pinball,linex,qtself,wave,expsat\n3.35,2.96,3.96,4.45,4.12,2.16\n"
BHIS_RANK_CSV = "hinge,pinball,linex,qtself,wave,expsat\n4.22,3.47,3.72,4.59,3.63,1.38\n"

TRAIN_FLAGS = ["--C", "30", "--a", "0.5", "--lam", "1", "--sigma", "0.3"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


@pytest.fixture
def data_csv(tmp_path):
    ds = two_cluster_dataset(n=150, m=2, separation=5.0, spread=0.5, seed=0)
    p = tmp_path / "clusters.csv"
    write_csv(ds, p)
    return p


@pytest.fixture
def model_file(tmp_path, data_csv, capsys):
    out = tmp_path / "model.json"
    code, _, _ = run(["train", "--input", str(data_csv), "--output", str(out),
                      "--seed", "0", *TRAIN_FLAGS], capsys)
    assert code == 0
    return out


class TestTrain:
    def test_success_prints_accuracy(self, tmp_path, data_csv, capsys):
        out = tmp_path / "model.json"
        code, stdout, _ = run(["train", "--input", str(data_csv), "--output", str(out),
                               "--seed", "0", *TRAIN_FLAGS], capsys)
        assert code == 0
        assert "train_accuracy=100.0" in stdout
        assert "final_objective=" in stdout
        assert out.exists()
        assert (tmp_path / "model.json.manifest.json").exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_printed_accuracy_is_that_of_the_saved_model(self, tmp_path, seed, capsys):
        # train reads the accuracy off the fit's Gram; predict on the same
        # file evaluates the saved model's kernel afresh
        ds = two_cluster_dataset(n=150, m=2, separation=1.0, spread=1.0, seed=seed)
        data, model, preds = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
        write_csv(ds, data)
        code, stdout, _ = run(["train", "--input", str(data), "--output", str(model), "--seed", str(seed),
                               *TRAIN_FLAGS], capsys)
        assert code == 0
        printed = float(stdout.split("train_accuracy=")[1])
        assert printed < 100.0
        code, _, _ = run(["predict", "--model", str(model), "--input", str(data), "--output", str(preds)], capsys)
        assert code == 0
        labels = np.array([float(row[0]) for row in _read_rows(preds)[1]])
        assert printed == accuracy(labels, ds.y)

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(["train", "--input", str(tmp_path / "nope.csv"),
                            "--output", str(tmp_path / "m.json")], capsys)
        assert code == 3
        assert "nope.csv" in err

    def test_non_finite_objective_is_numeric_error(self, tmp_path, capsys):
        ds = two_cluster_dataset(n=40, m=2, separation=3.0, spread=1.0, seed=0)
        write_csv(ds, tmp_path / "d.csv")
        out = tmp_path / "model.json"
        code, _, err = run(["train", "--input", str(tmp_path / "d.csv"), "--output", str(out),
                            "--C", "1e306"], capsys)
        assert code == 4
        _one_line_error(err)
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--a", "-1", "--sigma", "-1", "--C", "-1"], "expsat requires shape parameter a > 0, got a=-1.0"),
        (["--sigma", "-1", "--C", "-1", "--momentum", "2"], "gaussian kernel width sigma must be > 0, got sigma=-1.0"),
        (["--C", "-1", "--momentum", "2"], "trade-off C must be > 0, got -1.0"),
        (["--C", "inf"], "C must be finite, got C=inf"),
        (["--alpha0", "inf"], "alpha0 must be finite, got alpha0=inf"),
        (["--eta", "inf"], "eta must be finite, got eta=inf"),
        (["--beta0", "inf"], "beta0 must be finite, got beta0=inf"),
        (["--v0", "nan"], "v0 must be finite, got v0=nan"),
        (["--beta0", "inf", "--momentum", "2"], "momentum r must lie in [0, 1), got 2.0"),
    ], ids=["loss-first", "kernel-next", "config-last", "infinite-C", "infinite-alpha0", "infinite-eta",
            "infinite-beta0", "nan-v0", "ranges-before-finiteness"])
    def test_invalid_values_checked_loss_then_kernel_then_config(self, flags, message, tmp_path, data_csv,
                                                                 capsys):
        out = tmp_path / "m.json"
        code, _, err = run(["train", "--input", str(data_csv), "--output", str(out), *flags], capsys)
        assert code == 2
        assert err == f"satsvm: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("loss", [["--loss", "hinge"], ["--loss", "pinball", "--tau", "0.3"]],
                             ids=["hinge", "pinball"])
    def test_saved_config_is_the_manifest_params(self, loss, tmp_path, data_csv, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run(["train", "--input", str(data_csv), "--output", str(out), "--seed", "4", *loss,
                          "--kernel", "linear", "--momentum", "0.3", "--batch-size", "8",
                          "--max-iters", "50", "--eta", "0.05"], capsys)
        assert code == 0
        config = json.loads(out.read_text())["config"]
        params = json.loads((tmp_path / "m.json.manifest.json").read_text())["params"]
        assert (params["kernel"], params["r"], params["batch_size"], params["max_iters"], params["eta"]) == (
            "linear", 0.3, 8, 50, 0.05)
        assert config.pop("loss") == {"kind": params["loss"], **{
            key: params[key] for key in ("a", "lam", "tau", "delta", "delta1", "delta2")}}
        assert config.pop("kernel") == {"kind": params["kernel"], "sigma": params["sigma"]}
        assert config.pop("r") == params["r"]
        assert config.pop("seed") == child_seed(params["seed"], "batches")
        assert sorted(config) == ["C", "alpha0", "batch_size", "beta0", "eta", "max_iters", "v0"]
        assert config == {key: params[key] for key in config}

    def test_oversized_batch_is_usage_error(self, tmp_path, data_csv, capsys):
        code, _, err = run(["train", "--input", str(data_csv),
                            "--output", str(tmp_path / "m.json"),
                            "--batch-size", "500"], capsys)
        assert code == 2
        assert "batch" in err

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, data_csv, capsys):
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        code, _, _ = run(["train", "--input", str(data_csv), "--output", str(out1),
                          "--seed", "7", *TRAIN_FLAGS], capsys)
        assert code == 0
        manifest = str(out1) + ".manifest.json"
        code, _, _ = run(["train", "--config", manifest, "--output", str(out2)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_command_mismatch_rejected(self, tmp_path, data_csv, capsys):
        out = tmp_path / "m.json"
        run(["train", "--input", str(data_csv), "--output", str(out), *TRAIN_FLAGS], capsys)
        code, _, err = run(["predict", "--config", str(out) + ".manifest.json",
                            "--output", str(tmp_path / "p.csv")], capsys)
        assert code == 2
        assert "train" in err


class TestPredict:
    def test_predicts_training_file(self, tmp_path, data_csv, model_file, capsys):
        out = tmp_path / "preds.csv"
        code, _, _ = run(["predict", "--model", str(model_file),
                          "--input", str(data_csv), "--output", str(out)], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert header == ["prediction", "decision_value"]
        assert len(rows) == 150
        assert all(r[0] in ("1.0", "-1.0") for r in rows)

    def test_dimension_mismatch(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,1\n4,5,6,-1\n")
        code, _, err = run(["predict", "--model", str(model_file),
                            "--input", str(bad), "--output", str(tmp_path / "p.csv")], capsys)
        assert code == 2
        assert "dimension" in err or "match" in err

    def test_sparse_query_narrower_than_the_model(self, tmp_path, capsys):
        train = tmp_path / "train.svm"
        train.write_text("1 1:0.9 2:0.1 3:0.5\n-1 1:-0.8 2:0.2\n1 1:0.7 3:-0.4\n-1 1:-0.9 2:-0.3 3:0.1\n")
        model = tmp_path / "m.json"
        code, _, _ = run(["train", "--input", str(train), "--format", "sparse", "--output", str(model)], capsys)
        assert code == 0
        queries = {"narrow": "1 1:0.5 2:0.3\n-1 1:-0.6\n", "explicit": "1 1:0.5 2:0.3 3:0\n-1 1:-0.6 3:0\n",
                   "wide": "1 1:0.5 4:0.3\n"}
        results = {}
        for name, text in queries.items():
            query = tmp_path / f"{name}.svm"
            query.write_text(text)
            out = tmp_path / f"{name}.csv"
            code, _, err = run(["predict", "--model", str(model), "--input", str(query), "--format", "sparse",
                                "--output", str(out)], capsys)
            results[name] = code, err, out.read_text() if code == 0 else None
        assert results["narrow"][0] == results["explicit"][0] == 0
        assert results["narrow"][2] == results["explicit"][2]
        code, err, _ = results["wide"]
        assert code == 2
        _one_line_error(err)
        assert "sparse query index 4 is past the model's 3 features" in err


class TestCorrupt:
    def test_outlier_record_size(self, tmp_path, data_csv, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = run(["corrupt", "--input", str(data_csv), "--output", str(out),
                               "--mode", "outliers", "--rate", "0.1", "--seed", "1"], capsys)
        assert code == 0
        assert "touched 15 of 150" in stdout
        record = json.loads((tmp_path / "c.csv.record.json").read_text())
        assert len(record["touched_indices"]) == 15

    def test_label_invert_restores_file_bytes(self, tmp_path, data_csv, capsys):
        corrupted = tmp_path / "noisy.csv"
        restored = tmp_path / "restored.csv"
        run(["corrupt", "--input", str(data_csv), "--output", str(corrupted),
             "--mode", "labels", "--rate", "0.2", "--seed", "3"], capsys)
        code, _, _ = run(["corrupt", "--input", str(corrupted), "--output", str(restored),
                          "--invert", "--record", str(corrupted) + ".record.json"], capsys)
        assert code == 0
        assert restored.read_bytes() == data_csv.read_bytes()

    def test_outlier_invert_restores_file_bytes(self, tmp_path, data_csv, capsys):
        corrupted = tmp_path / "out.csv"
        restored = tmp_path / "back.csv"
        run(["corrupt", "--input", str(data_csv), "--output", str(corrupted),
             "--mode", "outliers", "--rate", "0.3", "--seed", "4"], capsys)
        code, _, _ = run(["corrupt", "--input", str(corrupted), "--output", str(restored),
                          "--invert", "--record", str(corrupted) + ".record.json"], capsys)
        assert code == 0
        assert restored.read_bytes() == data_csv.read_bytes()

    def test_invert_reads_the_record_beside_its_input(self, tmp_path, data_csv, capsys):
        corrupted = tmp_path / "noisy.csv"
        restored = tmp_path / "restored.csv"
        code, _, _ = run(["corrupt", "--input", str(data_csv), "--output", str(corrupted)], capsys)
        assert code == 0
        code, _, err = run(["corrupt", "--input", str(corrupted), "--invert", "--output", str(restored)],
                           capsys)
        assert code == 0, err
        assert restored.read_bytes() == data_csv.read_bytes()
        assert not (tmp_path / "restored.csv.record.json").exists()

    def test_rate_out_of_range(self, tmp_path, data_csv, capsys):
        code, _, err = run(["corrupt", "--input", str(data_csv),
                            "--output", str(tmp_path / "c.csv"), "--rate", "1.5"], capsys)
        assert code == 2
        assert "rate" in err

    @pytest.mark.parametrize("mangle", [
        lambda doc: "{broken",
        lambda doc: "[]",
        lambda doc: json.dumps({k: v for k, v in doc.items() if k != "touched_indices"}),
        lambda doc: json.dumps({**doc, "touched_indices": ["3"] + doc["touched_indices"][1:]}),
        lambda doc: json.dumps({**doc, "mode": "swap"}),
        lambda doc: json.dumps({**doc, "touched_indices": [150] + doc["touched_indices"][1:]}),
        lambda doc: json.dumps({**doc, "touched_features": [-1] + doc["touched_features"][1:]}),
        lambda doc: json.dumps({**doc, "original_values": doc["original_values"][1:]}),
    ], ids=["malformed-json", "not-an-object", "missing-key", "string-index", "unknown-mode",
            "index-past-end", "negative-feature", "short-values"])
    def test_malformed_record_is_data_error(self, mangle, tmp_path, data_csv, capsys):
        corrupted = tmp_path / "out.csv"
        run(["corrupt", "--input", str(data_csv), "--output", str(corrupted),
             "--mode", "outliers", "--rate", "0.1", "--seed", "4"], capsys)
        record = tmp_path / "out.csv.record.json"
        record.write_text(mangle(json.loads(record.read_text())))
        code, _, err = run(["corrupt", "--input", str(corrupted), "--output", str(tmp_path / "back.csv"),
                            "--invert", "--record", str(record)], capsys)
        assert code == 3
        _one_line_error(err)


class TestStats:
    @pytest.mark.parametrize("text,kind,where", [
        ("dataset,m1,m2\nd1,90,abc\nd2,85,88\n", "accuracies", "line 2, column 'm2': 'abc'"),
        ("dataset,m1,m2\nd1,90,80\n\nd2,nan,88\n", "accuracies", "line 4, column 'm1': 'nan'"),
        ("dataset,m1,m2\nd1,90,80\nd2,85\n", "accuracies", "line 3 has 2 cells"),
        ("dataset,model,mean_acc\nd1,m1,high\nd1,m2,80\n", "accuracies", "column 'mean_acc'"),
        ("m1,m2,m3\n1.5,x,2.5\n", "mean-ranks", "line 2, column 'm2': 'x'"),
        ("dataset,model,mean_acc\nd1,a,90\nd1,b,80\nd1,a,10\n", "accuracies",
         "line 4 repeats dataset 'd1', model 'a'"),
    ], ids=["non-numeric", "nan", "ragged-row", "harness-results", "mean-ranks", "repeated-row"])
    def test_bad_cell_is_data_error(self, text, kind, where, tmp_path, capsys):
        src = tmp_path / "acc.csv"
        src.write_text(text)
        code, _, err = run(["stats", "--input", str(src), "--input-kind", kind, "--num-datasets", "2",
                            "--critical-f", "5", "--output", str(tmp_path / "r.csv")], capsys)
        assert code == 3
        assert where in err
        _one_line_error(err)

    def test_d1_mean_rank_fixture(self, tmp_path, capsys):
        src = tmp_path / "ranks.csv"
        src.write_text(D1_RANK_CSV)
        out = tmp_path / "report.csv"
        code, stdout, _ = run(["stats", "--input", str(src), "--input-kind", "mean-ranks",
                               "--num-datasets", "79", "--output", str(out)], capsys)
        assert code == 0
        assert "reject=True" in stdout
        header, rows = _read_rows(out)
        by_model = {r[0]: r for r in rows}
        chi2 = float(rows[0][header.index("chi2")])
        ff = float(rows[0][header.index("F_F")])
        cd = float(rows[0][header.index("CD")])
        assert chi2 == pytest.approx(81.442, abs=0.05)
        assert ff == pytest.approx(20.26, abs=0.01)
        assert cd == pytest.approx(0.85, abs=0.005)
        sig = header.index("significant")
        assert by_model["pinball"][sig] == "false"
        assert by_model["hinge"][sig] == "true"
        assert by_model["expsat"][sig] == ""  # reference model

    def test_bhis_cd_fixture(self, tmp_path, capsys):
        src = tmp_path / "ranks.csv"
        src.write_text(BHIS_RANK_CSV)
        out = tmp_path / "report.csv"
        code, _, _ = run(["stats", "--input", str(src), "--input-kind", "mean-ranks",
                          "--num-datasets", "16", "--output", str(out)], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert float(rows[0][header.index("CD")]) == pytest.approx(1.88, abs=0.005)

    def test_accuracies_input(self, tmp_path, capsys):
        src = tmp_path / "acc.csv"
        src.write_text("dataset,m1,m2,m3\nd1,90,80,70\nd2,85,88,60\nd3,91,82,75\n")
        out = tmp_path / "report.csv"
        code, _, _ = run(["stats", "--input", str(src), "--critical-f", "5.14",
                          "--output", str(out)], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert len(rows) == 3
        assert float(rows[0][header.index("mean_rank")]) == pytest.approx(4.0 / 3.0)

    def test_harness_results_input_pivots(self, tmp_path, capsys):
        src = tmp_path / "results.csv"
        src.write_text(
            "dataset,model,mean_acc,std_acc,time_s,C,sigma,a,lam,tau\n"
            "d1,expsat,95.0,1.0,0.01,30.0,0.3,0.5,1.0,\n"
            "d1,hinge (NAG),90.0,1.0,0.01,30.0,0.3,,,\n"
            "d1,pinball (NAG),85.0,1.0,0.01,30.0,0.3,,,0.5\n"
            "d2,expsat,88.0,1.0,0.01,30.0,0.3,0.5,1.0,\n"
            "d2,hinge (NAG),84.0,1.0,0.01,30.0,0.3,,,\n"
            "d2,pinball (NAG),80.0,1.0,0.01,30.0,0.3,,,0.5\n"
            "d3,expsat,70.0,1.0,0.01,30.0,0.3,0.5,1.0,\n"
            "d3,hinge (NAG),75.0,1.0,0.01,30.0,0.3,,,\n"
            "d3,pinball (NAG),60.0,1.0,0.01,30.0,0.3,,,0.5\n"
        )
        out = tmp_path / "report.csv"
        code, _, _ = run(["stats", "--input", str(src), "--critical-f", "18.5",
                          "--output", str(out)], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        by_model = {r[0]: r for r in rows}
        assert float(by_model["expsat"][header.index("mean_rank")]) == pytest.approx(4.0 / 3.0)
        assert float(by_model["hinge (NAG)"][header.index("mean_rank")]) == pytest.approx(5.0 / 3.0)
        assert float(by_model["pinball (NAG)"][header.index("mean_rank")]) == 3.0


class TestCurveEmitters:
    def test_loss_curve_rows_and_bound(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(["loss-curve", "--loss", "expsat", "--a", "5", "--lam", "1.5",
                          "--u-min", "-2", "--u-max", "3", "--u-step", "0.01",
                          "--output", str(out)], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert header == ["u", "value", "derivative"]
        assert len(rows) == 501
        assert max(float(r[1]) for r in rows) <= 1.5

    def test_calibration_interior_minimum(self, tmp_path, capsys):
        out = tmp_path / "risk.csv"
        code, stdout, _ = run(["calibration", "--a", "1", "--lam", "1", "--p", "0.7",
                               "--output", str(out)], capsys)
        assert code == 0
        assert "sign_matches_bayes=True" in stdout
        header, rows = _read_rows(out)
        f = np.array([float(r[0]) for r in rows])
        risk = np.array([float(r[1]) for r in rows])
        imin = int(np.argmin(risk))
        assert 0 < imin < len(rows) - 1
        assert f[imin] > 0

    @pytest.mark.parametrize("flags", [
        ["loss-curve", "--u-step", "0"],
        ["loss-curve", "--u-step", "nan"],
        ["loss-curve", "--u-step", "-0.5"],
        ["loss-curve", "--u-min", "3", "--u-max", "-2"],
        ["loss-curve", "--u-max", "inf"],
        ["loss-curve", "--u-min=-1e308", "--u-max", "1e308"],
        ["loss-curve", "--u-step", "1e-9"],
        ["calibration", "--f-hi", "inf"],
    ], ids=["zero-step", "nan-step", "negative-step", "reversed", "infinite-bound",
            "overflowing-span", "too-many-points", "calibration-infinite-bound"])
    def test_bad_grid_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, err = run([*flags, "--output", str(out)], capsys)
        assert code == 2
        _one_line_error(err)
        assert not out.exists()

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_calibration_check_fails_before_any_output(self, p, tmp_path, capsys):
        code, _, err = run(["calibration", "--p", p, "--output", str(tmp_path / "c.csv")], capsys)
        assert code == 2
        assert "0 < P < 1" in err
        _one_line_error(err)
        assert list(tmp_path.iterdir()) == []

    def test_sweep_grid(self, tmp_path, data_csv, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--input", str(data_csv), "--output", str(out),
                          "--seed", "0", "--C", "30", "--sigma", "0.3",
                          "--a-grid", "0.5,1", "--lambda-grid", "1,2"], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert header == ["a", "lam", "mean_accuracy"]
        assert len(rows) == 4


class TestGrid:
    @pytest.mark.parametrize("command,flags,config,key", [
        ("grid", ["--c-grid", "abc"], None, "c_grid"),
        ("sweep", ["--a-grid", "1,x"], None, "a_grid"),
        ("grid", [], {"c_grid": "1,zz"}, "c_grid"),
    ], ids=["grid-flag", "sweep-flag", "grid-config"])
    def test_non_numeric_axis_is_usage_error(self, command, flags, config, key, tmp_path, data_csv,
                                             capsys):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg)]
        out = tmp_path / "out.csv"
        code, _, err = run([command, "--input", str(data_csv), "--output", str(out), *flags], capsys)
        assert code == 2
        assert key in err
        _one_line_error(err)
        assert not out.exists()

    def test_empty_sweep_axis_is_usage_error(self, tmp_path, data_csv, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(["sweep", "--input", str(data_csv), "--output", str(out),
                            "--a-grid", ","], capsys)
        assert code == 2
        assert "a grid is empty" in err
        _one_line_error(err)
        assert not out.exists()

    @pytest.mark.parametrize("flag,key", [("--a-grid", "a"), ("--lambda-grid", "lam")])
    def test_non_finite_sweep_axis_is_usage_error(self, flag, key, tmp_path, data_csv, capsys):
        out = tmp_path / "sweep.csv"
        code, _, err = run(["sweep", "--input", str(data_csv), "--output", str(out), flag, "1,inf"], capsys)
        assert code == 2
        assert f"the {key} grid contains the non-finite value inf" in err
        _one_line_error(err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["a", "lam"])
    @pytest.mark.parametrize("command,flags", [("train", ["--input", "{data}"]), ("loss-curve", ["--u-step", "0.5"]),
                                               ("calibration", [])], ids=["train", "loss-curve", "calibration"])
    def test_non_finite_expsat_parameter_is_usage_error(self, command, flags, key, tmp_path, data_csv, capsys):
        # the rule the grid and sweep axes follow, for every command that takes a or lam
        argv = [command, *(flag.format(data=data_csv) for flag in flags), f"--{key}", "inf",
                "--output", str(tmp_path / "out")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert f"{key}=inf" in err
        _one_line_error(err)
        assert list(tmp_path.iterdir()) == [data_csv]  # no output and no manifest

    def test_unsearched_axis_is_checked(self, tmp_path, data_csv, capsys):
        out = tmp_path / "grid.csv"
        code, _, err = run(["grid", "--input", str(data_csv), "--output", str(out),
                            "--models", "expsat", "--tau-grid", "inf"], capsys)
        assert code == 2
        assert "the tau grid contains the non-finite value inf" in err
        _one_line_error(err)
        assert not out.exists()

    def test_a_zero_is_dropped_without_stderr(self, tmp_path, data_csv):
        out = tmp_path / "grid.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "satsvm", "grid", "--input", str(data_csv), "--output", str(out),
             "--models", "truncated_pinball", "--a-grid", "0,1", "--c-grid", "30",
             "--sigma-grid", "0.3", "--tau-grid", "0.5"],
            capture_output=True, text=True, env=_program_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert out.exists()

    @pytest.mark.parametrize("command,config,flags,message", [
        ("grid", {}, ["--loss", "hinge", "--models", "expsat"], "--models"),
        ("sweep", {"loss": "hinge"}, ["--a-grid", "1", "--lambda-grid", "1"], "saturating-loss"),
    ])
    def test_loss_other_than_its_default_is_usage_error(self, command, config, flags, message, tmp_path,
                                                        data_csv, capsys):
        # grid trains the --models kinds and sweep varies expsat's a and lam;
        # neither may record one loss in its manifest and train another
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "max_iters": 20}))
        out = tmp_path / "out.csv"
        code, _, err = run([command, "--input", str(data_csv), "--config", str(cfg), "--output", str(out),
                            *flags], capsys)
        assert code == 2
        assert message in err
        _one_line_error(err)
        assert not out.exists()

    @pytest.mark.parametrize("command,searched", [
        ("grid", {"C": ("c_grid", 500), "sigma": ("sigma_grid", 7), "a": ("a_grid", 3),
                  "lam": ("lambda_grid", 0.25), "tau": ("tau_grid", 0.9)}),
        ("sweep", {"a": ("a_grid", 9), "lam": ("lambda_grid", 0.1)}),
    ])
    def test_searched_key_other_than_its_default_is_usage_error(self, command, searched, tmp_path, data_csv,
                                                                capsys):
        # the command's grid overwrites the key, so a manifest recording the
        # value would name one that the run never used
        out = tmp_path / "out.csv"
        for key, (grid_key, value) in searched.items():
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value, "max_iters": 20}))
            code, _, err = run([command, "--input", str(data_csv), "--config", str(cfg), "--output", str(out),
                                "--a-grid", "1", "--lambda-grid", "1"], capsys)
            assert code == 2, key
            assert f"{command} takes {key} from --{grid_key.replace('_', '-')}, not {key}={value!r}" in err
            _one_line_error(err)
            assert not out.exists()

    def test_unknown_model_is_usage_error(self, tmp_path, data_csv, capsys):
        code, _, err = run(["grid", "--input", str(data_csv), "--output", str(tmp_path / "g.csv"),
                            "--models", "expsat,svm"], capsys)
        assert code == 2
        assert "'svm'" in err
        _one_line_error(err)

    def test_two_models_share_fold_plan(self, tmp_path, data_csv, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(["grid", "--input", str(data_csv), "--output", str(out),
                          "--seed", "0", "--models", "expsat,hinge",
                          "--c-grid", "30", "--sigma-grid", "0.3",
                          "--a-grid", "0.5", "--lambda-grid", "1"], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert header == ["dataset", "model", "mean_acc", "std_acc", "time_s",
                          "C", "sigma", "a", "lam", "tau"]
        assert [r[1] for r in rows] == ["expsat", "hinge (NAG)"]
        assert rows[0][0] == rows[1][0] == "clusters"
        assert rows[1][7] == ""  # hinge has no shape parameter

    def test_single_point_grid_selected(self, tmp_path, data_csv, capsys):
        out = tmp_path / "grid.csv"
        code, _, _ = run(["grid", "--input", str(data_csv), "--output", str(out),
                          "--seed", "0", "--models", "expsat",
                          "--c-grid", "30", "--sigma-grid", "0.3",
                          "--a-grid", "0.5", "--lambda-grid", "1"], capsys)
        assert code == 0
        header, rows = _read_rows(out)
        assert rows[0][header.index("C")] == "30.0"
        assert rows[0][header.index("sigma")] == "0.3"
        assert float(rows[0][header.index("mean_acc")]) >= 95.0


    def test_overflowing_candidate_is_numeric_error_naming_it(self, tmp_path, capsys):
        ds = two_cluster_dataset(n=40, m=2, separation=3.0, spread=1.0, seed=0)
        write_csv(ds, tmp_path / "d.csv")
        out = tmp_path / "grid.csv"
        code, _, err = run(["grid", "--input", str(tmp_path / "d.csv"), "--output", str(out),
                            "--c-grid", "1,1e306", "--sigma-grid", "1", "--a-grid", "1",
                            "--lambda-grid", "1"], capsys)
        assert code == 4
        _one_line_error(err)
        assert "C=1e+306, a=1.0, lam=1.0" in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "satsvm", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "satsvm" in proc.stdout


def _program_env():
    """The environment with this checkout's package first on the path."""
    import os
    from pathlib import Path

    import satsvm

    src = str(Path(satsvm.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _one_line_error(err):
    assert err.startswith("satsvm: ") and err.count("\n") == 1, err


def _edit(change):
    """Model-text mangler that applies ``change`` to the parsed document."""
    def mangle(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return mangle


MANGLED_MODELS = {
    "malformed-json": lambda text: text[: len(text) // 2],
    "not-an-object": lambda text: "[1, 2, 3]",
    "missing-key": _edit(lambda d: d.pop("kernel")),
    "extra-key": _edit(lambda d: d.update(note="hi")),
    "missing-nested-key": _edit(lambda d: d["config"]["loss"].pop("lam")),
    "wrong-type-scalar": _edit(lambda d: d.update(iterations_run="1000")),
    "wrong-type-entry": _edit(lambda d: d["support_points"][3].__setitem__(1, "x")),
    "bool-as-number": _edit(lambda d: d["beta"].__setitem__(0, True)),
    "beta-shorter-than-points": _edit(lambda d: d["beta"].pop()),
    "ragged-support-points": _edit(lambda d: d["support_points"][0].append(0.5)),
    "no-support-points": _edit(lambda d: d.update(support_points=[], beta=[])),
    "scaler-narrower-than-points": _edit(lambda d: d["scaler"].pop()),
    "scaler-pair-of-three": _edit(lambda d: d["scaler"][0].append(1.0)),
    "nan-support-point": lambda text: text.replace("[\n    [\n      ", "[\n    [\n      NaN, ", 1),
    "infinite-beta": _edit(lambda d: d["beta"].__setitem__(0, float("inf"))),
    "bad-kernel-kind": _edit(lambda d: d["kernel"].update(kind="cubic")),
    "kernel-disagrees-with-config": _edit(lambda d: d["kernel"].update(sigma=5.0)),
    "bad-sigma": _edit(lambda d: d["kernel"].update(sigma=-1.0)),
    "bad-loss-parameter": _edit(lambda d: d["config"]["loss"].update(a=-1.0)),
    "unsupported-version": _edit(lambda d: d.update(format_version=2)),
    "nan-final-objective": _edit(lambda d: d.update(final_objective=float("nan"))),
    "iterations-disagree-with-config": _edit(lambda d: d.update(iterations_run=d["config"]["max_iters"] + 1)),
    "infinite-loss-parameter": _edit(lambda d: d["config"]["loss"].update(a=float("inf"))),
    "integer-past-the-float-range": _edit(lambda d: d.update(final_objective=10**400)),
}


class TestMangledModelFiles:
    @pytest.mark.parametrize("case", sorted(MANGLED_MODELS))
    def test_exits_3_with_one_line(self, case, tmp_path, data_csv, model_file, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_text(MANGLED_MODELS[case](model_file.read_text()))
        code, _, err = run(["predict", "--model", str(bad), "--input", str(data_csv),
                            "--output", str(tmp_path / "p.csv")], capsys)
        assert code == 3, err
        _one_line_error(err)

    def test_binary_garbage(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "bad_model.json"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        code, _, err = run(["predict", "--model", str(bad), "--input", str(data_csv),
                            "--output", str(tmp_path / "p.csv")], capsys)
        assert code == 3
        _one_line_error(err)


class TestConfigFiles:
    @pytest.mark.parametrize("text", ["{not json", "5", "[1, 2]", '"train"',
                                      '{"command": "train", "params": 5}'],
                             ids=["malformed", "number", "list", "string", "params-not-object"])
    def test_bad_config_is_usage_error(self, text, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run(["train", "--config", str(cfg), "--input", str(data_csv),
                            "--output", str(tmp_path / "m.json")], capsys)
        assert code == 2
        _one_line_error(err)

    @pytest.mark.parametrize("params", [
        {"C": "abc"}, {"seed": 1.5}, {"max_iters": True}, {"normalize": "yes"}, {"loss": "foo"},
        {"kernel": 3}, {"sigma": None}, {"format": ["csv"]},
    ], ids=["string-for-float", "float-for-int", "bool-for-int", "string-for-bool", "unknown-choice",
            "number-for-choice", "null-for-float", "list-for-string"])
    def test_mistyped_config_value_is_usage_error(self, params, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(params))
        code, _, err = run(["train", "--config", str(cfg), "--input", str(data_csv),
                            "--output", str(tmp_path / "m.json")], capsys)
        assert code == 2
        assert repr(next(iter(params))) in err
        _one_line_error(err)

    def test_config_values_of_the_declared_types_run(self, tmp_path, data_csv, capsys):
        # an int passes where a float is expected; null where the default is null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha0": 1, "sigma": 1, "batch_size": None, "max_iters": 20,
                                   "c_grid": [1, 2.5], "sigma_grid": "0.5,1", "a_grid": [1],
                                   "lambda_grid": "1"}))
        argv = ["grid", "--config", str(cfg), "--input", str(data_csv), "--output", str(tmp_path / "g.csv")]
        assert run(argv, capsys)[0] == 0
        cfg.write_text(json.dumps({"c_grid": [1, "x"]}))
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "c_grid" in err

    def test_every_manifest_reruns(self, tmp_path, data_csv, model_file, capsys):
        argvs = {
            "predict": ["predict", "--model", str(model_file), "--input", str(data_csv)],
            "loss-curve": ["loss-curve", "--loss", "pinball", "--tau", "0.3"],
            "calibration": ["calibration", "--p", "0.3"],
            "corrupt": ["corrupt", "--input", str(data_csv), "--rate", "0.2"],
            "sweep": ["sweep", "--input", str(data_csv), "--a-grid", "0.5", "--lambda-grid", "1",
                      "--max-iters", "20", "--sigma", "0.3"],
        }
        for name, argv in argvs.items():
            first, second = tmp_path / f"{name}.1", tmp_path / f"{name}.2"
            assert run([*argv, "--output", str(first)], capsys)[0] == 0
            manifest = str(first) + ".manifest.json"
            assert run([name, "--config", manifest, "--output", str(second)], capsys)[0] == 0
            assert first.read_bytes() == second.read_bytes(), name


class TestBadDataFiles:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_csv_cell(self, cell, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2,1\n3,4,-1\n5,{cell},1\n")
        code, _, err = run(["train", "--input", str(bad), "--output", str(tmp_path / "m.json")],
                           capsys)
        assert code == 3
        assert "line 3" in err
        _one_line_error(err)

    def test_partly_numeric_first_line_is_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,abc,1\n0.1,0.2,-1\n0.3,0.4,1\n0.5,0.6,-1\n0.7,0.8,1\n")
        code, _, err = run(["train", "--input", str(bad), "--output", str(tmp_path / "m.json")], capsys)
        assert code == 3
        assert "line 1: non-numeric cell" in err
        _one_line_error(err)

    @pytest.mark.parametrize("line", ["1 1:nan 2:0.5", "1 1:0.5 1:0.7", "nan 1:0.5"],
                             ids=["nan-value", "repeated-index", "nan-label"])
    def test_bad_sparse_line(self, line, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text(f"-1 1:0.1 2:0.2\n{line}\n")
        code, _, err = run(["train", "--input", str(bad), "--format", "sparse",
                            "--output", str(tmp_path / "m.json")], capsys)
        assert code == 3
        assert "line 2" in err
        _one_line_error(err)

    def test_sparse_width_past_the_cap(self, tmp_path, model_file, capsys):
        # a dense 2-by-1e12 matrix would take 14.6 TiB: refused before it is allocated
        huge = tmp_path / "huge.svm"
        huge.write_text("1 1:0.5\n-1 1000000000000:0.5\n")
        want = "2 rows of 1000000000000 features exceed the 400000000-entry dense matrix cap"
        for argv in (["train", "--input", str(huge), "--format", "sparse", "--output", str(tmp_path / "m2.json")],
                     ["predict", "--model", str(model_file), "--input", str(huge), "--format", "sparse",
                      "--output", str(tmp_path / "p.csv")]):
            code, _, err = run(argv, capsys)
            assert code == 2
            assert want in err
            _one_line_error(err)


class TestImportFootprint:
    def test_cli_import_loads_no_scipy(self):
        code = "import sys, satsvm.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_program_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
