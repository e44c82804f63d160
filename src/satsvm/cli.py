"""Command-line entry point.

Every subcommand writes its outputs plus a manifest (the fully resolved
parameter set) beside the primary output, the manifest once the command
has succeeded, so a failing command writes none; re-running a command
from its manifest via ``--config`` reproduces the outputs byte for byte.
The one exception is the measured wall-clock ``time_s`` field of grid
results, which is honest timing and therefore not reproducible.

Exit codes: 0 success, 2 usage or validation error, 3 data error,
4 numeric failure during optimization.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .data import (
    CorruptionMode,
    CorruptionRecord,
    DataFormat,
    Dataset,
    apply_scaler,
    check_layout,
    corrupt,
    dump_json,
    from_doc,
    invert_corruption,
    layout,
    load_dataset,
    make_folds,
    normalize,
    parse_json,
    to_doc,
    write_csv,
    write_rows,
)
from .errors import DataFormatError, NumericError, ParameterError, SatsvmError, ShapeError
from .harness import GRID_AXES, GridSpec, accuracy, grid_search_models, sensitivity_sweep
from .kernel import gram_matrix, row_product
from .loss import PARAMETERS, LossKind, LossSpec, loss_derivative, loss_value
from .seeds import child_seed
from .stats import RankTable, friedman_nemenyi, rank_models
from .theory import CalibrationResult, ConditionalRiskQuery, calibration_check, conditional_risk, step_grid
from .trainer import (FLAT_PARAMETERS, TrainerConfig, apply_params, decision_values, fit, load_model,
                      save_model, sign_labels)

MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class Option:
    """One parameter key with its default and its command-line flag.

    ``type`` converts the flag's text (``None`` keeps it as a string);
    ``bool`` makes a switch, ``--no-<key>`` when the default is on and
    ``--<key>`` when it is off. ``flag`` overrides the spelling derived
    from the key.
    """

    key: str
    default: object = None
    type: object = None
    choices: tuple | None = None
    flag: str | None = None
    help: str | None = None

    def add_to(self, parser) -> None:
        name = self.key.replace("_", "-")
        if self.type is bool:
            flag = self.flag or ("--no-" + name if self.default else "--" + name)
            action = "store_false" if self.default else "store_true"
            parser.add_argument(flag, dest=self.key, action=action, help=self.help)
        else:
            parser.add_argument(self.flag or "--" + name, dest=self.key, type=self.type,
                                choices=self.choices, help=self.help)

    def check(self, value) -> None:
        """Raise ``ParameterError`` unless a ``--config`` value fits this option:
        its type (an int passes as a float), null where the default is null,
        and one of the choices if it has any. A grid axis is a list of
        numbers or, as its flag takes it, comma-separated text."""
        if isinstance(self.default, list) and isinstance(value, str):
            return
        schema = [float] if isinstance(self.default, list) else self.type or str
        where = f"config value {self.key!r}"
        check_layout(value, (schema,) if self.default is None else schema, where, ParameterError)
        if self.choices is not None and value not in self.choices:
            raise ParameterError(f"{where} must be one of {list(self.choices)}, got {value!r}")


def _values(enum_type) -> tuple[str, ...]:
    return tuple(member.value for member in enum_type)


_GRID_DEFAULT = GridSpec()
_GRID_KEYS = tuple(name for _, name in GRID_AXES)
# The trainer keys, the loss's first; the seed is the root of the child
# streams, its own option, and each command seeds its config from a stream.
_LOSS_KEYS = tuple(key for key, p in FLAT_PARAMETERS.items() if p.field == "loss")
_TRAINER_KEYS = (*_LOSS_KEYS, *(key for key in FLAT_PARAMETERS if key not in _LOSS_KEYS and key != "seed"))

_OPTIONS = {o.key: o for o in (
    Option("input"), Option("model"), Option("output"), Option("record"),
    Option("format", "csv", choices=_values(DataFormat)),
    Option("mode", "outliers", choices=_values(CorruptionMode)),
    Option("input_kind", "accuracies", choices=("accuracies", "mean-ranks")),
    Option("models", "expsat", help="comma-separated loss kinds"),
    Option("normalize", True, bool),
    Option("invert", False, bool),
    *(Option(key, p.default, p.type, p.choices, flag="--momentum" if key == "r" else None)
      for key, p in FLAT_PARAMETERS.items() if key in _TRAINER_KEYS),
    *(Option(key, default, float) for key, default in dict(
        rate=0.1, factor=10.0, alpha=0.05, critical_f=None, u_min=-2.0, u_max=3.0, u_step=0.01, p=0.7,
        f_lo=-3.0, f_hi=3.0, f_step=1e-3).items()),
    *(Option(key, default, int) for key, default in dict(seed=0, folds=5, num_datasets=None).items()),
    *(Option(key, list(getattr(_GRID_DEFAULT, key))) for key in _GRID_KEYS),
)}

_DATA_KEYS = ("input", "format", "output", "seed", "normalize")
_SWEEP_FLAGS = (*_DATA_KEYS, "folds", "a_grid", "lambda_grid", "C", "sigma", "batch_size", "max_iters")

# subcommand -> (help, keys that have a flag, keys settable only through
# --config, defaults that differ from the option table's)
_SUBCOMMANDS = {
    "train": ("fit a model and serialize it", (*_DATA_KEYS, *_TRAINER_KEYS), (),
              {"output": "model.json"}),
    "predict": ("classify rows of a data file with a saved model",
                ("model", "input", "format", "output"), (), {"output": "predictions.csv"}),
    "grid": ("grid search with k-fold cross-validation",
             (*_DATA_KEYS, "models", "folds", *_GRID_KEYS, *_TRAINER_KEYS), (),
             {"output": "grid_results.csv"}),
    "corrupt": ("inject outliers or label noise, or invert a record",
                ("input", "format", "output", "mode", "rate", "factor", "seed", "record", "invert"),
                (), {"output": "corrupted.csv"}),
    "stats": ("Friedman / Nemenyi report from accuracies or mean ranks",
              ("input", "input_kind", "num_datasets", "alpha", "critical_f", "output"), (),
              {"output": "stats_report.csv"}),
    "loss-curve": ("emit (u, value, derivative) samples of a loss",
                   (*_LOSS_KEYS, "u_min", "u_max", "u_step", "output"), (),
                   {"output": "loss_curve.csv"}),
    "calibration": ("emit the conditional-risk curve for one P",
                    (*PARAMETERS[LossKind.EXPSAT], "p", "f_lo", "f_hi", "f_step", "output"), (),
                    {"output": "calibration_curve.csv"}),
    "sweep": ("loss-parameter sensitivity surface",
              _SWEEP_FLAGS, tuple(k for k in _TRAINER_KEYS if k not in _SWEEP_FLAGS),
              {"output": "sweep.csv", "a_grid": [0.5, 1.0, 2.0, 5.0],
               "lambda_grid": [0.5, 1.0, 1.5, 2.0]}),
}

DEFAULTS = {
    name: {key: overrides.get(key, _OPTIONS[key].default) for key in (*flags, *config_only)}
    for name, (_, flags, config_only, overrides) in _SUBCOMMANDS.items()
}


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(command: str, params: dict, output: str):
    doc = {
        "tool": "satsvm",
        "version": __version__,
        "manifest_format": MANIFEST_FORMAT,
        "command": command,
        "params": params,
    }
    _write_text(output + ".manifest.json", dump_json(doc))


def _floats(p: dict, key: str) -> list[float]:
    """The numbers of grid axis ``key``: a list, or comma-separated text."""
    value = p[key]
    try:
        if isinstance(value, str):
            return [float(v) for v in value.split(",") if v.strip() != ""]
        return [float(v) for v in value]
    except ValueError:
        raise ParameterError(f"{key} must be comma-separated numbers, got {value!r}") from None


def _config(p: dict, stream: str, **params) -> TrainerConfig:
    """The trainer settings in ``p``, overridden by ``params``, seeded
    from the child stream ``stream`` of ``p["seed"]``."""
    seed = child_seed(p["seed"], stream)
    return apply_params(TrainerConfig(seed=seed), {**{k: p[k] for k in _TRAINER_KEYS}, **params})


def _check_searched(command: str, p: dict, axes) -> None:
    """Raise ``ParameterError`` where ``p`` sets a key that the grid named
    beside it in ``axes`` (``(key, grid key)`` pairs) overwrites, so that
    no manifest records a value its run ignored."""
    for key, grid in axes:
        if p[key] != _OPTIONS[key].default:
            raise ParameterError(f"{command} takes {key} from --{grid.replace('_', '-')}, not {key}={p[key]!r}")


def _load(p: dict) -> Dataset:
    return load_dataset(p["input"], DataFormat(p["format"]))


def _training_data(p: dict) -> Dataset:
    """The input dataset, normalized unless ``--no-normalize``."""
    ds = _load(p)
    return normalize(ds) if p["normalize"] else ds


def cmd_train(p: dict) -> int:
    ds = _training_data(p)
    config = _config(p, "batches")
    # the fit's Gram gives the training decision values as K @ beta
    K = gram_matrix(config.kernel, ds.X)
    model = fit(config, ds.X, ds.y, gram=K)
    train_acc = accuracy(sign_labels(row_product(K, model.beta)), ds.y)
    del K
    if ds.scaler is not None:
        model = replace(model, scaler=ds.scaler)
    _write_text(p["output"], save_model(model))
    print(f"final_objective={model.final_objective!r} train_accuracy={train_acc!r}")
    return 0


def cmd_predict(p: dict) -> int:
    model = load_model(_read_text(p["model"]))
    ds = _load(p)
    width = model.support_points.shape[1]
    if DataFormat(p["format"]) is DataFormat.SPARSE:
        if ds.m > width:
            raise ShapeError(f"sparse query index {ds.m} is past the model's {width} features")
        # a sparse file is only as wide as its highest index; the model's
        # further features are implicit zeros
        ds = replace(ds, X=np.pad(ds.X, ((0, 0), (0, width - ds.m))))
    if model.scaler is not None:
        ds = apply_scaler(ds, model.scaler)
    values = decision_values(model, ds.X)
    write_rows(p["output"], zip(sign_labels(values).tolist(), values.tolist()), ["prediction", "decision_value"])
    return 0


def cmd_grid(p: dict) -> int:
    ds = _training_data(p)
    plan = make_folds(ds.n, p["folds"], seed=child_seed(p["seed"], "folds"))
    grid = GridSpec(**{key: tuple(_floats(p, key)) for key in _GRID_KEYS})
    if p["loss"] != _OPTIONS["loss"].default:
        raise ParameterError(f"grid trains the losses that --models names, not loss {p['loss']!r}")
    kinds = [kind.strip() for kind in p["models"].split(",")]
    unknown = [kind for kind in kinds if kind not in _values(LossKind)]
    if unknown:
        raise ParameterError(f"unknown model(s) {unknown}; choose from {list(_values(LossKind))}")
    configs = [_config(p, f"train/{kind}", loss=kind) for kind in kinds]
    _check_searched("grid", p, GRID_AXES)
    rows = [
        (result.dataset, result.model, result.mean_accuracy, result.std_accuracy,
         result.train_time_seconds, *(result.best_params.get(key) for key, _ in GRID_AXES))
        for result in grid_search_models(ds, configs, grid, plan)
    ]
    write_rows(p["output"], rows, ["dataset", "model", "mean_acc", "std_acc", "time_s",
                                   *(key for key, _ in GRID_AXES)])
    return 0


def cmd_corrupt(p: dict) -> int:
    ds = _load(p)
    if p["invert"]:
        # the corrupting run wrote the record beside its output, this run's input
        record_path = p["record"] or p["input"] + ".record.json"
        doc = parse_json(_read_text(record_path), f"corruption record {record_path}")
        check_layout(doc, layout(CorruptionRecord), "corruption record")
        write_csv(invert_corruption(ds, from_doc(CorruptionRecord, doc)), p["output"])
        return 0
    corrupted, record = corrupt(ds, p["mode"], p["rate"], p["factor"], child_seed(p["seed"], "corruption"))
    write_csv(corrupted, p["output"])
    _write_text(p["record"] or p["output"] + ".record.json", dump_json(to_doc(record)))
    print(f"touched {len(record.touched_indices)} of {ds.n} samples")
    return 0


def _read_table(path):
    """Header cells and ``(line number, cells)`` for each non-blank row;
    every row must be as wide as the header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, [c.strip() for c in ln.split(",")]) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise DataFormatError("empty table")
    header = lines[0][1]
    for no, cells in lines[1:]:
        if len(cells) != len(header):
            raise DataFormatError(f"line {no} has {len(cells)} cells, the header has {len(header)}")
    return header, lines[1:]


def _numbers(header, no, cells, columns) -> list[float]:
    """The finite numbers in the given columns of the table row on line ``no``."""
    out = []
    for i in columns:
        try:
            value = float(cells[i])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DataFormatError(f"line {no}, column {header[i]!r}: {cells[i]!r} is not a finite number")
        out.append(value)
    return out


def _pivot_results(header, body):
    """Long-format harness results (dataset, model, mean_acc, ...) to a
    D-by-p accuracy matrix; every dataset must cover every model once."""
    d_i, m_i, a_i = header.index("dataset"), header.index("model"), header.index("mean_acc")
    datasets = list(dict.fromkeys(cells[d_i] for _, cells in body))
    models = list(dict.fromkeys(cells[m_i] for _, cells in body))
    acc = np.full((len(datasets), len(models)), np.nan)
    for no, cells in body:
        cell = datasets.index(cells[d_i]), models.index(cells[m_i])
        if not np.isnan(acc[cell]):
            raise DataFormatError(f"line {no} repeats dataset {cells[d_i]!r}, model {cells[m_i]!r}")
        acc[cell] = _numbers(header, no, cells, [a_i])[0]
    if np.isnan(acc).any():
        raise DataFormatError("results table is missing some (dataset, model) cells")
    return acc, models


def cmd_stats(p: dict) -> int:
    header, body = _read_table(p["input"])
    if p["input_kind"] == "mean-ranks":
        if p["num_datasets"] is None:
            raise ParameterError("--num-datasets is required with mean-rank input")
        if len(body) != 1:
            raise DataFormatError("mean-rank input must have exactly one data row")
        table = RankTable.from_mean_ranks(
            _numbers(header, *body[0], range(len(header))), D=int(p["num_datasets"]), models=header
        )
    elif header[:3] == ["dataset", "model", "mean_acc"]:
        acc, models = _pivot_results(header, body)
        table = rank_models(acc, models=models)
    else:
        models = header[1:]
        acc = np.array([_numbers(header, no, cells, range(1, len(header))) for no, cells in body])
        table = rank_models(acc, models=models)
    report = friedman_nemenyi(table, critical_F=p["critical_f"], alpha=p["alpha"])
    best = int(np.argmin(report.mean_ranks))
    names = report.models or tuple(f"model_{i+1}" for i in range(len(report.mean_ranks)))
    rows = []
    for i, name in enumerate(names):
        diff = None if i == best else float(report.pairwise_diffs[i, best])
        sig = None if i == best else bool(report.significant[i, best])
        rows.append((
            name, float(report.mean_ranks[i]), diff, sig,
            report.chi2, report.F_F, report.dof[0], report.dof[1],
            report.critical_F, report.reject, report.CD,
        ))
    write_rows(p["output"], rows, ["model", "mean_rank", "rank_diff", "significant",
                                   "chi2", "F_F", "dof1", "dof2", "critical_F", "reject", "CD"])
    print(f"chi2={report.chi2!r} F_F={report.F_F!r} CD={report.CD!r} reject={report.reject}")
    return 0


def cmd_loss_curve(p: dict) -> int:
    spec = apply_params(TrainerConfig(), {k: p[k] for k in _LOSS_KEYS}).loss
    u = step_grid(p["u_min"], p["u_max"], p["u_step"], ("u_min", "u_max", "u_step"))
    values = loss_value(spec, u)
    derivs = loss_derivative(spec, u)
    write_rows(p["output"], zip(u.tolist(), values.tolist(), derivs.tolist()), ["u", "value", "derivative"])
    return 0


def cmd_calibration(p: dict) -> int:
    q = ConditionalRiskQuery(
        loss=LossSpec(LossKind.EXPSAT, **{k: p[k] for k in PARAMETERS[LossKind.EXPSAT]}), P=p["p"],
        f_lo=p["f_lo"], f_hi=p["f_hi"], f_step=p["f_step"],
    )
    result: CalibrationResult = calibration_check(q)
    f = q.grid()
    risk = conditional_risk(q, f)
    write_rows(p["output"], zip(f.tolist(), risk.tolist()), ["f", "risk"])
    if result.degenerate:
        print(f"f_star={result.f_star!r} degenerate=true")
    else:
        print(f"f_star={result.f_star!r} sign_matches_bayes={result.sign_matches_bayes}")
    return 0


def cmd_sweep(p: dict) -> int:
    ds = _training_data(p)
    plan = make_folds(ds.n, p["folds"], seed=child_seed(p["seed"], "folds"))
    config = _config(p, "train/expsat")
    _check_searched("sweep", p, [("a", "a_grid"), ("lam", "lambda_grid")])
    rows = sensitivity_sweep(ds, config, _floats(p, "a_grid"), _floats(p, "lambda_grid"), plan)
    write_rows(p["output"], rows, ["a", "lam", "mean_accuracy"])
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "grid": cmd_grid,
    "corrupt": cmd_corrupt,
    "stats": cmd_stats,
    "loss-curve": cmd_loss_curve,
    "calibration": cmd_calibration,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satsvm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"satsvm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config or a previously emitted manifest")
        for key in flags:
            _OPTIONS[key].add_to(sp)
    return parser


def resolve_params(command: str, supplied: dict) -> dict:
    """Layer defaults, then --config contents, then explicit flags."""
    params = dict(DEFAULTS[command])
    config_path = supplied.pop("config", None)
    if config_path:
        doc = parse_json(_read_text(config_path), f"config {config_path}", ParameterError)
        if isinstance(doc, dict) and "params" in doc:
            if doc.get("command") not in (None, command):
                raise ParameterError(
                    f"config was emitted for {doc.get('command')!r}, not {command!r}"
                )
            doc = doc["params"]
        if not isinstance(doc, dict):
            raise ParameterError(f"config {config_path} must hold a JSON object of parameters")
        unknown = set(doc) - set(params)
        if unknown:
            raise ParameterError(f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in doc.items():
            _OPTIONS[key].check(value)
        params.update(doc)
    params.update(supplied)
    missing = [k for k in ("input", "model") if k in params and params[k] is None]
    if missing:
        raise ParameterError(f"missing required option(s): {', '.join('--' + m for m in missing)}")
    return params


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    supplied = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        params = resolve_params(args.command, supplied)
        code = _COMMANDS[args.command](params)
        _write_manifest(args.command, params, params["output"])
        return code
    except (SatsvmError, OSError, UnicodeDecodeError) as exc:
        print(f"satsvm: {exc}", file=sys.stderr)
        if isinstance(exc, NumericError):
            return 4
        return 3 if isinstance(exc, (DataFormatError, OSError, UnicodeDecodeError)) else 2

if __name__ == "__main__":
    raise SystemExit(main())
