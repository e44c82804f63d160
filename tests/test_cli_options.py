"""Snapshot of every subcommand's parameter defaults and accepted flags.

Manifests record the resolved parameters, so a default that moves or a
flag that disappears breaks the byte-identical re-run contract. The
literals below are the values the option table must keep producing.
"""

import argparse

import pytest

from satsvm.cli import _SUBCOMMANDS, _defaults, build_parser, main

DEFAULTS = {command: _defaults(command) for command in _SUBCOMMANDS}

DECADES = [1e-06, 1e-05, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0,
           100000.0, 1000000.0]
A_STEPS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6,
           1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.1, 3.2, 3.3,
           3.4, 3.5, 3.6, 3.7, 3.8, 3.9, 4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9, 5.0]
LAMBDA_STEPS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6,
                1.7, 1.8, 1.9, 2.0]

LOSS = {"loss": "expsat", "a": 1.0, "lam": 1.0, "tau": 0.5, "delta": 1.0, "delta1": 1.0,
        "delta2": 1.0}
TRAINER = {**LOSS, "C": 1.0, "kernel": "gaussian", "sigma": 1.0, "beta0": 0.01, "v0": 0.01,
           "alpha0": 0.1, "eta": 0.1, "r": 0.6, "batch_size": None, "max_iters": 1000}
DATA = {"input": None, "format": "csv", "seed": 0, "normalize": True}

EXPECTED_DEFAULTS = {
    "train": {**DATA, "output": "model.json", **TRAINER},
    "predict": {"model": None, "input": None, "format": "csv", "output": "predictions.csv"},
    "grid": {**DATA, "output": "grid_results.csv", "models": "expsat", "folds": 5,
             "c_grid": DECADES, "sigma_grid": DECADES, "a_grid": A_STEPS,
             "lambda_grid": LAMBDA_STEPS, "tau_grid": [0.0, 0.3, 0.5, 0.7, 0.9], **TRAINER},
    "corrupt": {"input": None, "format": "csv", "output": "corrupted.csv", "record": None,
                "mode": "outliers", "rate": 0.1, "factor": 10.0, "seed": 0, "invert": False},
    "stats": {"input": None, "input_kind": "accuracies", "num_datasets": None, "alpha": 0.05,
              "critical_f": None, "output": "stats_report.csv"},
    "loss-curve": {**LOSS, "u_min": -2.0, "u_max": 3.0, "u_step": 0.01,
                   "output": "loss_curve.csv"},
    "calibration": {"a": 1.0, "lam": 1.0, "p": 0.7, "f_lo": -3.0, "f_hi": 3.0, "f_step": 1e-3,
                    "output": "calibration_curve.csv"},
    "sweep": {**DATA, "output": "sweep.csv", "folds": 5, "a_grid": [0.5, 1.0, 2.0, 5.0],
              "lambda_grid": [0.5, 1.0, 1.5, 2.0], **TRAINER},
}

TRAINER_FLAGS = ("--C --a --alpha0 --batch-size --beta0 --delta --delta1 --delta2 --eta --kernel "
                 "--lam --loss --max-iters --momentum --sigma --tau --v0")
EXPECTED_FLAGS = {
    "train": f"--config --format --input --no-normalize --output --seed {TRAINER_FLAGS}",
    "predict": "--config --format --input --model --output",
    "grid": ("--a-grid --c-grid --config --folds --format --input --lambda-grid --models "
             f"--no-normalize --output --seed --sigma-grid --tau-grid {TRAINER_FLAGS}"),
    "corrupt": "--config --factor --format --input --invert --mode --output --rate --record --seed",
    "stats": "--alpha --config --critical-f --input --input-kind --num-datasets --output",
    "loss-curve": ("--a --config --delta --delta1 --delta2 --lam --loss --output --tau --u-max "
                   "--u-min --u-step"),
    "calibration": "--a --config --f-hi --f-lo --f-step --lam --output --p",
    "sweep": ("--C --a-grid --batch-size --config --folds --format --input --lambda-grid "
              "--max-iters --no-normalize --output --seed --sigma"),
}
# flags whose parameter key is not the flag with dashes turned into underscores
IRREGULAR_DESTS = {"--momentum": "r", "--no-normalize": "normalize"}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_defaults_snapshot():
    assert set(DEFAULTS) == set(EXPECTED_DEFAULTS)
    for command, expected in EXPECTED_DEFAULTS.items():
        assert DEFAULTS[command] == expected, command


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_flags_snapshot(command):
    sp = _subparsers()[command]
    dests = {s: a.dest for a in sp._actions for s in a.option_strings if s not in ("-h", "--help")}
    assert sorted(dests) == sorted(EXPECTED_FLAGS[command].split())
    for flag, dest in dests.items():
        assert dest == IRREGULAR_DESTS.get(flag, flag[2:].replace("-", "_")), flag
        if dest != "config":
            assert dest in DEFAULTS[command], flag


def test_switches_and_types():
    sp = _subparsers()
    args = vars(sp["train"].parse_args(["--no-normalize", "--momentum", "0.5", "--max-iters", "7"]))
    assert args == {"normalize": False, "r": 0.5, "max_iters": 7}
    assert vars(sp["corrupt"].parse_args(["--invert"])) == {"invert": True}
    assert vars(sp["grid"].parse_args(["--c-grid", "1,30"])) == {"c_grid": "1,30"}


def test_config_only_keys_have_no_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--loss", "hinge"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
