"""Tests of the benchmark itself: tiny workloads run clean, and wrong
outputs are caught. Run with ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads as wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_workload_runs_clean(workload, trace):
    result = run.run(workload, seed=2, seconds=0, trace=trace, sizes=wl.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _ran(workload: str, workdir: Path) -> wl.Prepared:
    """Set up a tiny workload in ``workdir`` and run its commands once."""
    env = run.child_env(workdir)
    prepared = wl.prepare(workload, 4, wl.TINY, workdir)
    assert run.run_cli(prepared.warmup_argv, env, workdir).returncode == 0
    prepared.stdouts = {}
    for cmd in prepared.commands:
        res = run.run_cli(cmd.argv, env, workdir)
        assert res.returncode == 0, res.stderr
        assert cmd.check(res.stdout) == [], cmd.label
        prepared.stdouts[cmd.label] = res.stdout
    return prepared


def _command(prepared: wl.Prepared, label: str) -> wl.Command:
    return next(c for c in prepared.commands if c.label == label)


def _rewrite(path: Path, row: int, column: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_flipped_prediction_label_is_caught(tmp_path):
    prepared = _ran("train-predict", tmp_path)
    _rewrite(tmp_path / "predictions.csv", 1, 0, lambda v: repr(-float(v)))
    assert _command(prepared, "predict").check("") != []


def test_shifted_decision_value_is_caught(tmp_path):
    prepared = _ran("train-predict", tmp_path)
    _rewrite(tmp_path / "predictions.csv", 1, 1, lambda v: repr(float(v) * (1 + 1e-6)))
    assert _command(prepared, "predict").check("") != []


def test_wrong_train_accuracy_is_caught(tmp_path):
    prepared = _ran("train-predict", tmp_path)
    stdout = prepared.stdouts["train"]
    acc = wl._printed_fields(stdout)["train_accuracy"]
    wrong = stdout.replace(f"train_accuracy={acc}", f"train_accuracy={float(acc) - 1.0!r}")
    assert _command(prepared, "train").check(wrong) != []


def test_cli_short_corruptions_are_caught(tmp_path):
    prepared = _ran("cli-short", tmp_path)
    restored = tmp_path / "restored.csv"
    restored.write_bytes(restored.read_bytes().replace(b",", b", ", 1))
    assert _command(prepared, "corrupt-invert").check("") != []

    report = tmp_path / "stats_report.csv"
    header = report.read_text(encoding="utf-8").splitlines()[0].split(",")
    _rewrite(report, 1, header.index("chi2"), lambda v: repr(float(v) + 1e-6))
    assert _command(prepared, "stats").check(prepared.stdouts["stats"]) != []

    _rewrite(tmp_path / "curve.csv", 400, 1, lambda v: repr(float(v) * 1.001))
    assert _command(prepared, "loss-curve").check("") != []

    _rewrite(tmp_path / "small_predictions.csv", 3, 0, lambda v: repr(-float(v)))
    assert _command(prepared, "predict").check("") != []


def test_grid_winner_differing_from_record_is_caught(tmp_path):
    prepared = _ran("grid-cv", tmp_path)
    out = tmp_path / "grid_results.csv"
    rows = wl._grid_rows_without_time(out)
    assert wl.check_grid(out, {"grid_rows": rows}) == []
    rows[0][2] = repr(float(rows[0][2]) + 0.25)
    assert wl.check_grid(out, {"grid_rows": rows}) != []


def test_failed_and_nondeterministic_commands_count_as_failed(tmp_path):
    prepared = _ran("cli-short", tmp_path)
    cmd = _command(prepared, "loss-curve")
    tally = run.Tally()
    tally.record(cmd, 3, "", "satsvm: bad input\n")
    tally.record(cmd, 0, "", "")
    _rewrite(tmp_path / "curve.csv", 0, 0, lambda v: v + "0")  # values still check, bytes differ
    tally.record(cmd, 0, "", "")
    assert (tally.attempted, tally.failed) == (3, 2)


def test_recorded_seed_expectations_cover_every_workload():
    doc = json.loads(wl.EXPECTED_PATH.read_text(encoding="utf-8"))
    assert set(doc["workloads"]) == set(wl.WORKLOADS)
    assert wl._expected_for("grid-cv", doc["seed"], wl.FULL) is not None
    assert wl._expected_for("grid-cv", doc["seed"], wl.TINY) is None


def test_average_ranks_handle_ties():
    acc = np.array([[90.0, 80.0, 80.0, 70.0], [60.0, 60.0, 60.0, 60.0]])
    assert wl.average_ranks(acc).tolist() == [[1.0, 2.5, 2.5, 4.0], [2.5, 2.5, 2.5, 2.5]]


def test_tracer_wraps_names_bound_by_import_and_restores_them():
    run._import_program()
    import satsvm.cli
    import satsvm.harness
    import satsvm.trainer

    original_fit = satsvm.trainer.fit
    t = tracer.Tracer()
    t.install()
    try:
        assert satsvm.harness.fit is not original_fit
        assert satsvm.harness.fit.__wrapped__ is original_fit
        assert satsvm.cli._COMMANDS["train"].__wrapped__ is not None
        satsvm.trainer.learning_rate_at(0.1, 0.1, 3)
    finally:
        t.uninstall()
    assert satsvm.harness.fit is original_fit and satsvm.trainer.fit is original_fit
    assert [s[0] for s in t.spans] == [("trainer", "learning_rate_at")]
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["trainer.fit_calls"] == 0 and metrics["trainer.self_s"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
