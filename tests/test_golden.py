"""Golden-output corpus: a fixed set of CLI commands whose outputs must
keep their bytes.

Each group writes small seeded inputs into a fresh working directory and
runs its commands there through ``cli.main``, with relative paths. Every
command is recorded by its exit code, the SHA-256 of its stdout and
stderr, and the SHA-256 of every file it created or changed (outputs,
manifests, records). A command that argparse refuses is recorded by the
code it exits with, its usage line wrapped at 80 columns. The grid's
``time_s`` column is wall clock, so it is left out of a grid table's
hash. Every JSON file a command writes must be strict JSON, with no
``NaN`` or ``Infinity``. Every command that succeeds is run again from
its manifest, and the re-run's output must equal the original's. The
record is ``tests/golden.json``; after an intended change of outputs,
rewrite it with

    PYTHONPATH=src python tests/test_golden.py

and list each changed entry, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import forced_workers
import satsvm.trainer as trainer
from satsvm import two_cluster_dataset, write_csv
from satsvm.cli import main
from satsvm.kernel import COLUMN_GROUP

GOLDEN = Path(__file__).with_name("golden.json")

_LOSS_FLAGS = {
    "expsat": ["--a", "0.5", "--lam", "1"],
    "hinge": [],
    "pinball": ["--tau", "0.3"],
    "truncated_hinge": ["--delta", "1.5"],
    "truncated_pinball": ["--tau", "0.3", "--delta1", "1.5", "--delta2", "2"],
    "zero_one": [],
}


def _sparse_lines(rng, n: int, width: int):
    """``n`` lines of a sparse file with 0/1 labels, about 70% of the
    ``width`` entries given."""
    for i in range(n):
        values = np.round(rng.normal(i % 2, 1.0, width), 3)
        given = np.flatnonzero(rng.random(width) < 0.7)
        yield " ".join([str(i % 2), *(f"{j + 1}:{float(values[j])!r}" for j in given)]) + "\n"


def _write_inputs() -> None:
    """The seeded input files, written into the working directory."""
    write_csv(two_cluster_dataset(n=60, m=3, separation=2.0, spread=1.0, seed=3), "train.csv")
    write_csv(two_cluster_dataset(n=25, m=3, separation=2.0, spread=1.0, seed=4), "query.csv")
    write_csv(two_cluster_dataset(n=40, m=2, separation=3.0, spread=1.0, seed=0), "small.csv")
    rng = np.random.default_rng(5)
    Path("sparse.txt").write_text("".join(_sparse_lines(rng, 40, 4)))
    Path("sparse_query.txt").write_text("".join(_sparse_lines(rng, 10, 3)))  # narrower than the model
    Path("accuracies.csv").write_text("dataset,expsat,hinge,pinball\nd1,91.5,88.0,87.5\nd2,80.0,81.0,78.5\n"
                                      "d3,77.25,70.0,72.5\nd4,95.0,95.0,93.0\nd5,66.0,60.5,62.0\n")
    Path("ranks.csv").write_text("hinge,pinball,linex,qtself,wave,expsat\n3.35,2.96,3.96,4.45,4.12,2.16\n")
    Path("bad.csv").write_text("1.0,2.0,1\n3.0,abc,0\n")
    Path("broken_model.json").write_text('{"format_version": 1, "beta": [')
    Path("huge.txt").write_text("1 1:0.5\n-1 1000000000000:0.5\n")  # a 2-by-1e12 dense matrix


def _train_predict(loss: str, kernel: str, normalize: bool) -> list:
    extra = ["--sigma", "0.7"] if kernel == "gaussian" else []
    norm = [] if normalize else ["--no-normalize"]
    return [
        ["train", "--input", "train.csv", "--output", "model.json", "--seed", "2", "--C", "10",
         "--loss", loss, *_LOSS_FLAGS[loss], "--kernel", kernel, *extra, *norm],
        ["predict", "--model", "model.json", "--input", "query.csv", "--output", "pred.csv"],
    ]


_GRID_AXES = ["--c-grid", "1,100", "--sigma-grid", "0.5,2", "--a-grid", "0,0.5,2", "--lambda-grid", "0.5,1",
              "--tau-grid", "0.3,0.7"]

# group name -> the argv of its commands, run in order in one directory
GROUPS = {
    **{f"train-predict/{loss}/{kernel}/{'normalized' if normalize else 'raw'}":
       _train_predict(loss, kernel, normalize)
       for loss in _LOSS_FLAGS for kernel in ("gaussian", "linear") for normalize in (True, False)},
    "train-predict/sparse": [
        ["train", "--input", "sparse.txt", "--format", "sparse", "--output", "model.json", "--seed", "1"],
        ["predict", "--model", "model.json", "--input", "sparse_query.txt", "--format", "sparse",
         "--output", "pred.csv"],
    ],
    "grid/gaussian": [["grid", "--input", "train.csv", "--models", "expsat,hinge,pinball", "--seed", "3",
                       *_GRID_AXES, "--output", "grid.csv"]],
    "grid/linear": [["grid", "--input", "train.csv", "--models", "expsat", "--kernel", "linear", "--seed", "3",
                     *_GRID_AXES, "--output", "grid.csv"]],
    "sweep": [["sweep", "--input", "train.csv", "--a-grid", "0.5,2", "--lambda-grid", "0.5,1.5", "--C", "10",
               "--sigma", "0.7", "--seed", "4", "--output", "sweep.csv"]],
    # 20 columns: chunks of 16 and 4, or of 8, 8 and 4 in test_every_group_in_8_column_chunks
    "sweep/split-chunks": [["sweep", "--input", "train.csv", "--a-grid", "0.5,1,2,3", "--lambda-grid",
                            "0.5,1,1.5,2,2.5", "--C", "10", "--sigma", "0.7", "--seed", "4", "--output", "sweep.csv"]],
    "corrupt/outliers": [
        ["corrupt", "--input", "train.csv", "--mode", "outliers", "--rate", "0.2", "--factor", "7",
         "--seed", "5", "--output", "noisy.csv"],
        ["corrupt", "--input", "noisy.csv", "--invert", "--output", "restored.csv"],
    ],
    "corrupt/labels": [
        ["corrupt", "--input", "train.csv", "--mode", "labels", "--rate", "0.1", "--seed", "6",
         "--output", "noisy.csv", "--record", "noisy.json"],
        ["corrupt", "--input", "noisy.csv", "--invert", "--record", "noisy.json", "--output", "restored.csv"],
    ],
    "stats": [
        ["stats", "--input", "accuracies.csv", "--critical-f", "4.46", "--output", "report.csv"],
        ["stats", "--input", "ranks.csv", "--input-kind", "mean-ranks", "--num-datasets", "79",
         "--output", "ranks_report.csv"],
    ],
    "loss-curve": [["loss-curve", "--loss", loss, *_LOSS_FLAGS[loss], "--u-min", "-2", "--u-max", "3",
                    "--u-step", "0.05", "--output", f"curve_{loss}.csv"] for loss in _LOSS_FLAGS],
    "calibration": [
        ["calibration", "--a", "1", "--lam", "1", "--p", "0.7", "--f-step", "0.01", "--output", "risk.csv"],
        ["calibration", "--p", "0.5", "--f-step", "0.01", "--output", "risk_half.csv"],
    ],
    "failures": [
        ["train", "--input", "train.csv", "--output", "m2.json", "--momentum", "2"],
        ["train", "--input", "bad.csv", "--output", "m3.json"],
        ["predict", "--model", "broken_model.json", "--input", "query.csv", "--output", "p3.csv"],
        ["train", "--input", "small.csv", "--output", "m4.json", "--C", "1e306"],
        ["train", "--input", "huge.txt", "--format", "sparse", "--output", "m5.json"],
    ],
    # a Gaussian sigma must leave 1/sigma**2 finite and nonzero: about 7.5e-155 to 1.3e154
    "sigma-range": [
        ["train", "--input", "train.csv", "--output", "m1.json", "--sigma", "1e-200"],
        ["train", "--input", "train.csv", "--output", "m2.json", "--sigma", "1e155"],
        ["train", "--input", "train.csv", "--output", "m3.json", "--sigma", "7.5e-155"],
        ["grid", "--input", "train.csv", "--models", "expsat", "--c-grid", "1", "--sigma-grid", "1,1e-320",
         "--a-grid", "1", "--lambda-grid", "1", "--output", "grid.csv"],
        ["sweep", "--input", "train.csv", "--a-grid", "1", "--lambda-grid", "1", "--sigma", "1e-170",
         "--output", "sweep.csv"],
    ],
    # values the arithmetic cannot take are usage errors of one line, the
    # grid-set C before the missing input is read; extreme loss parameters
    # that succeed print nothing
    "cli-contract": [
        *(["stats", "--input", "accuracies.csv", f"--critical-f={value}", "--output", "report.csv"]
          for value in ("nan", "inf", "0", "-1")),
        *(["corrupt", "--input", "train.csv", "--factor", value, "--rate", "0.5", "--output", "noisy.csv"]
          for value in ("inf", "nan", "1e308")),
        ["loss-curve", "--loss", "expsat", "--a", "1e308", "--lam", "1e308", "--output", "curve.csv"],
        ["calibration", "--a", "1e300", "--lam", "1e300", "--output", "risk.csv"],
        ["loss-curve", "--loss", "truncated_pinball", "--tau", "1e-300", "--delta2", "1e300",
         "--output", "curve_tp.csv"],
        ["grid", "--input", "train.csv", "--models", "expsat,expsat", "--output", "grid.csv"],
        ["grid", "--input", "missing.csv", "--C", "5", "--output", "grid.csv"],
        # only alpha = 0.05 has Nemenyi critical values: another is refused
        # before the input is read, with an F critical value given or not
        ["stats", "--input", "accuracies.csv", "--alpha", "0.1", "--output", "report.csv"],
        ["stats", "--input", "accuracies.csv", "--alpha", "0.1", "--critical-f", "2.35", "--output", "report.csv"],
        ["stats", "--input", "missing.csv", "--alpha", "0.01", "--output", "report.csv"],
    ],
    # flags are spelled in full; train, grid, sweep and corrupt refuse a bad
    # parameter before they read the input; a parameter that the chosen loss,
    # kernel, corruption mode or inversion ignores must still be valid, as its
    # manifest records it
    "strict-parameters": [
        ["sweep", "--input", "train.csv", "--lam", "2", "--a", "3", "--output", "sweep.csv"],
        ["grid", "--input", "train.csv", "--lambda", "2", "--output", "grid.csv"],
        ["grid", "--input", "missing.csv", "--models", "svm", "--output", "grid.csv"],
        ["grid", "--input", "missing.csv", "--models", "expsat,expsat", "--output", "grid.csv"],
        ["train", "--input", "missing.csv", "--C", "-1", "--output", "model.json"],
        ["sweep", "--input", "missing.csv", "--a-grid", "x", "--output", "sweep.csv"],
        ["grid", "--input", "missing.csv", "--c-grid", "x", "--output", "grid.csv"],
        ["train", "--input", "train.csv", "--tau", "nan", "--delta", "inf", "--output", "model.json"],
        ["train", "--input", "train.csv", "--loss", "hinge", "--a", "inf", "--output", "model.json"],
        ["train", "--input", "train.csv", "--kernel", "linear", "--sigma", "inf", "--output", "model.json"],
        ["loss-curve", "--loss", "expsat", "--tau", "nan", "--output", "curve.csv"],
        ["corrupt", "--input", "train.csv", "--mode", "labels", "--factor", "inf", "--rate", "0.1",
         "--output", "noisy.csv"],
        ["corrupt", "--input", "train.csv", "--invert", "--factor", "inf", "--rate", "7",
         "--output", "restored.csv"],
        ["corrupt", "--input", "missing.csv", "--invert", "--rate", "7", "--output", "restored.csv"],
        ["corrupt", "--input", "missing.csv", "--mode", "labels", "--rate", "0", "--output", "noisy.csv"],
    ],
    "non-finite-parameters": [
        ["train", "--input", "train.csv", "--output", f"m_{key}.json", f"--{key}", value]
        for key, value in (("C", "inf"), ("alpha0", "inf"), ("eta", "inf"), ("beta0", "inf"), ("v0", "nan"))
    ],
}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if data.startswith(b"dataset,model,mean_acc,std_acc,time_s,"):
        rows = [line.split(b",") for line in data.splitlines()]
        data = b"\n".join(b",".join(row[:4] + row[5:]) for row in rows)
    return hashlib.sha256(data).hexdigest()


def _files() -> dict:
    return {path.name: _digest(path) for path in sorted(Path().iterdir()) if path.is_file()}


def _strict_constant(token: str):
    raise AssertionError(f"a written JSON file holds {token}, which strict JSON parsers reject")


def _run(argv: list) -> dict:
    before = _files()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal: its usage line and one error line
            code = exc.code
    files = {name: h for name, h in _files().items() if before.get(name) != h}
    for name in files:
        if name.endswith(".json"):
            json.loads(Path(name).read_text(), parse_constant=_strict_constant)
    return {
        "argv": " ".join(argv),
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "files": files,
    }


def run_group(name: str) -> list:
    """The record of every command of group ``name``, each successful one
    followed by its re-run from the manifest, whose output must equal the
    command's; run in the working directory after the inputs are written
    there."""
    _write_inputs()
    record = []
    for argv in GROUPS[name]:
        record.append(_run(argv))
        if record[-1]["exit"] == 0:
            output = argv[argv.index("--output") + 1]
            rerun = _run([argv[0], "--config", output + ".manifest.json", "--output", "rerun-" + output])
            assert rerun["files"]["rerun-" + output] == record[-1]["files"][output], rerun["argv"]
            record.append(rerun)
    return record


def inputs() -> dict:
    """The hash of every input file, written in the working directory."""
    _write_inputs()
    return _files()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_group_is_recorded(golden):
    assert sorted(golden["groups"]) == sorted(GROUPS)


def test_inputs(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert inputs() == golden["inputs"]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_group(group, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_group(group) == golden["groups"][group]


@pytest.mark.parametrize("workers", [2, 3])
def test_every_group_on_forced_workers(workers, golden, tmp_path, monkeypatch):
    """The corpus keeps its bytes when every kernel call and row product
    takes the parallel path, on 2 and 3 workers."""
    with forced_workers(workers):
        for i, group in enumerate(sorted(GROUPS)):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            assert run_group(group) == golden["groups"][group], group


def test_every_group_in_8_column_chunks(golden, tmp_path, monkeypatch):
    """The corpus keeps its bytes when every batch of more than 8 columns
    trains 8 columns at a time: ``COLUMN_BYTES`` holds 8 columns of the
    48-row training parts of ``train.csv``."""
    monkeypatch.setattr(trainer, "COLUMN_BYTES", 8 * 48 * COLUMN_GROUP)
    for i, group in enumerate(sorted(GROUPS)):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        assert run_group(group) == golden["groups"][group], group


def _record() -> dict:
    doc = {"inputs": None, "groups": {}}
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            doc["inputs"] = inputs()
        for name in GROUPS:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                doc["groups"][name] = run_group(name)
    finally:
        os.chdir(cwd)
    return doc


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), sort_keys=True, indent=1) + "\n")
