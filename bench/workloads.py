"""Workloads of the satsvm benchmark.

Each workload is a fixed sequence of ``satsvm`` CLI commands over inputs
that :func:`prepare` generates from a seed. Every command carries a check
of its outputs against an independent numpy recomputation, so a wrong
answer counts as a failed command however fast it was.

Inputs are synthetic two-cluster data (Gaussian blobs ``separation``
apart along the first feature, unit spread), written as CSV with
``repr`` floats, the same text the program itself writes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("grid-cv", "train-predict", "cli-short")

# Decision values are checked against a blocked numpy evaluation of the
# saved model: |value - reference| <= PREDICT_RTOL * sum_j |beta_j K_j|.
# The reference forms squared distances as |x|^2 + |z|^2 - 2 x.z, which
# rounds differently from the program's row loop by ~1e-13 relative.
PREDICT_RTOL = 1e-9
# Elementwise loss, risk and statistic outputs are recomputed from their
# closed forms and must agree to this relative tolerance.
FORMULA_RTOL = 1e-12

GRID_HEADER = ["dataset", "model", "mean_acc", "std_acc", "time_s", "C", "sigma", "a", "lam", "tau"]
# Two-tailed Nemenyi q at alpha = 0.05 for 6 models (Demsar 2006, table 5a)
# and the F(5, 75) critical value at alpha = 0.05 the CLI uses for 16 x 6.
NEMENYI_Q_6 = 2.849705
F_CRIT_6_16 = 2.35

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


FEATURES = 10
FOLDS = 5
GRID = {"c": (1.0, 30.0), "sigma": (0.3, 1.0), "a": (0.5, 2.0), "lambda": (0.5, 1.0)}
TRAIN_C = 100.0
TRAIN_SIGMA = 0.3
STATS_DATASETS = 16
STATS_MODELS = 6


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY keeps the tests fast."""

    grid_n: int
    train_n: int
    query_n: int
    short_n: int
    small_n: int
    max_iters: int | None = None  # None keeps the CLI default of 1000


FULL = Sizes(grid_n=400, train_n=3000, query_n=20000, short_n=3000, small_n=200)
TINY = Sizes(grid_n=60, train_n=150, query_n=300, short_n=150, small_n=40, max_iters=60)


@dataclass
class Command:
    """One CLI call: ``argv`` follows ``satsvm``; ``outputs`` are removed
    before the call; ``check(stdout)`` returns a list of problems; and
    :meth:`digest` covers the deterministic part of the outputs, which
    must repeat exactly on every repetition of a run."""

    label: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[str], list[str]]
    fingerprint: Callable[[], str] | None = None  # replaces the digest of every output

    def digest(self) -> str:
        if self.fingerprint is not None:
            return self.fingerprint()
        return _digest(*(p.read_bytes() for p in self.outputs))


@dataclass
class Prepared:
    commands: list[Command]
    warmup_argv: list[str]
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def two_clusters(rng: np.random.Generator, n: int, m: int, separation: float = 3.0, spread: float = 1.0):
    half = n // 2
    centers = np.zeros((2, m))
    centers[0, 0] = -separation / 2.0
    centers[1, 0] = separation / 2.0
    X = np.vstack([
        centers[0] + spread * rng.standard_normal((half, m)),
        centers[1] + spread * rng.standard_normal((n - half, m)),
    ])
    y = np.concatenate([np.full(half, -1.0), np.full(n - half, 1.0)])
    order = rng.permutation(n)
    return X[order], y[order]


def write_dataset(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row + [label])) + "\n")


def read_dataset(path: Path):
    arr = np.loadtxt(path, delimiter=",", ndmin=2)
    return arr[:, :-1], arr[:, -1]


def _write_accuracy_table(path: Path, rng: np.random.Generator, d: int, p: int) -> None:
    """Percent accuracies with per-model offsets; whole numbers, so ties occur."""
    offsets = rng.uniform(-4.0, 4.0, size=p)
    acc = np.clip(np.round(80.0 + offsets + rng.normal(0.0, 4.0, size=(d, p))), 0.0, 100.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["dataset"] + [f"model_{j + 1}" for j in range(p)]) + "\n")
        for i, row in enumerate(acc.tolist()):
            fh.write(",".join([f"data_{i + 1}"] + [repr(v) for v in row]) + "\n")


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _iters_flag(sizes: Sizes) -> list[str]:
    return [] if sizes.max_iters is None else ["--max-iters", str(sizes.max_iters)]


def grid_candidates() -> int:
    """Candidates of ``--models expsat,hinge``: expsat spans (C, sigma, a, lam), hinge (C, sigma)."""
    cs = len(GRID["c"]) * len(GRID["sigma"])
    return cs * len(GRID["a"]) * len(GRID["lambda"]) + cs


def prepare(workload: str, seed: int, sizes: Sizes, workdir: Path) -> Prepared:
    """Write the workload's inputs under ``workdir`` and return its commands.

    Every workload's set-up also writes a small training set; the warm-up
    command trains on it, and ``cli-short`` predicts with that model.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    small_train = workdir / "small_train.csv"
    small_model = workdir / "small_model.json"
    write_dataset(small_train, *two_clusters(rng, sizes.small_n, FEATURES))
    warmup = ["train", "--input", str(small_train), "--output", str(small_model),
              "--seed", str(seed), "--C", "10", "--sigma", "1"] + _iters_flag(sizes)
    expected = _expected_for(workload, seed, sizes)
    if workload == "grid-cv":
        commands, info = _grid_cv(rng, seed, sizes, workdir, expected)
    elif workload == "train-predict":
        commands, info = _train_predict(rng, seed, sizes, workdir, expected)
    else:
        commands, info = _cli_short(rng, seed, sizes, workdir, small_model, expected)
    return Prepared(commands=commands, warmup_argv=warmup, info=info)


def _expected_for(workload: str, seed: int, sizes: Sizes) -> dict | None:
    """Outputs recorded for the recorded seed at full size, else None."""
    if sizes != FULL or not EXPECTED_PATH.is_file():
        return None
    doc = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    if doc.get("seed") != seed:
        return None
    return doc["workloads"].get(workload)


# ------------------------------------------------------------- workloads


def _grid_cv(rng, seed, sizes, workdir, expected):
    data = workdir / "grid.csv"
    write_dataset(data, *two_clusters(rng, sizes.grid_n, FEATURES))
    out = workdir / "grid_results.csv"
    argv = ["grid", "--input", str(data), "--models", "expsat,hinge", "--seed", str(seed),
            "--folds", str(FOLDS), "--c-grid", _csv(GRID["c"]), "--sigma-grid", _csv(GRID["sigma"]),
            "--a-grid", _csv(GRID["a"]), "--lambda-grid", _csv(GRID["lambda"]),
            "--output", str(out)] + _iters_flag(sizes)
    manifest = Path(str(out) + ".manifest.json")
    cmd = Command(
        label="grid",
        argv=argv,
        outputs=[out, manifest],
        check=lambda stdout: check_grid(out, expected),
        fingerprint=lambda: _digest(json.dumps(_grid_rows_without_time(out)).encode(), manifest.read_bytes()),
    )
    fold_n = sizes.grid_n - sizes.grid_n // FOLDS
    info = {
        "fits": grid_candidates() * FOLDS,
        "k_bytes": {"fold": fold_n * fold_n * 8, "refit": sizes.grid_n ** 2 * 8},
    }
    return [cmd], info


def _train_predict(rng, seed, sizes, workdir, expected):
    train = workdir / "train.csv"
    query = workdir / "query.csv"
    write_dataset(train, *two_clusters(rng, sizes.train_n, FEATURES))
    write_dataset(query, *two_clusters(rng, sizes.query_n, FEATURES))
    model = workdir / "model.json"
    preds = workdir / "predictions.csv"
    train_argv = ["train", "--input", str(train), "--output", str(model), "--seed", str(seed),
                  "--C", repr(TRAIN_C), "--sigma", repr(TRAIN_SIGMA)] + _iters_flag(sizes)
    commands = [
        Command(
            label="train",
            argv=train_argv,
            outputs=[model, Path(str(model) + ".manifest.json")],
            check=lambda stdout: check_train(stdout, model, train, expected),
        ),
        Command(
            label="predict",
            argv=["predict", "--model", str(model), "--input", str(query), "--output", str(preds)],
            outputs=[preds, Path(str(preds) + ".manifest.json")],
            check=lambda stdout: check_predictions(model, query, preds, expected),
        ),
    ]
    info = {"query_rows": sizes.query_n, "k_bytes": {"train": sizes.train_n ** 2 * 8}}
    return commands, info


def _cli_short(rng, seed, sizes, workdir, small_model, expected):
    data = workdir / "data.csv"
    small_query = workdir / "small_query.csv"
    table = workdir / "accuracies.csv"
    write_dataset(data, *two_clusters(rng, sizes.short_n, FEATURES))
    write_dataset(small_query, *two_clusters(rng, sizes.small_n, FEATURES))
    _write_accuracy_table(table, rng, STATS_DATASETS, STATS_MODELS)

    corrupted = workdir / "corrupted.csv"
    record = workdir / "corrupted.csv.record.json"
    restored = workdir / "restored.csv"
    report = workdir / "stats_report.csv"
    curve = workdir / "curve.csv"
    calib = workdir / "calibration.csv"
    small_preds = workdir / "small_predictions.csv"

    def outs(path, *extra):
        return [path, Path(str(path) + ".manifest.json"), *extra]

    specs = [
        ("corrupt", ["corrupt", "--input", str(data), "--mode", "outliers", "--rate", "0.1",
                     "--seed", str(seed), "--output", str(corrupted)],
         outs(corrupted, record), lambda stdout: check_corrupt(stdout, data, corrupted, record, 0.1)),
        ("corrupt-invert", ["corrupt", "--input", str(corrupted), "--invert", "--record", str(record),
                            "--output", str(restored)],
         outs(restored), lambda stdout: check_restored(data, restored)),
        ("stats", ["stats", "--input", str(table), "--output", str(report)],
         outs(report), lambda stdout: check_stats(stdout, table, report)),
        ("loss-curve", ["loss-curve", "--output", str(curve)],
         outs(curve), lambda stdout: check_loss_curve(curve)),
        ("calibration", ["calibration", "--output", str(calib)],
         outs(calib), lambda stdout: check_calibration(stdout, calib)),
        ("predict", ["predict", "--model", str(small_model), "--input", str(small_query),
                     "--output", str(small_preds)],
         outs(small_preds), lambda stdout: check_predictions(small_model, small_query, small_preds, expected)),
    ]
    return [Command(*spec) for spec in specs], {"k_bytes": {}}


# ---------------------------------------------------------------- checks


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read_rows(path: Path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _grid_rows_without_time(path: Path):
    header, rows = _read_rows(path)
    t = header.index("time_s")
    return [row[:t] + row[t + 1:] for row in rows]


def _printed_fields(stdout: str) -> dict:
    """``key=value`` tokens of a command's stdout."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def _allclose(a, b, rtol=FORMULA_RTOL, atol=1e-300) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + atol))


def check_grid(path: Path, expected: dict | None) -> list[str]:
    header, rows = _read_rows(path)
    if header != GRID_HEADER:
        return [f"grid header {header}"]
    problems = []
    if [r[1] for r in rows] != ["expsat", "hinge (NAG)"]:
        problems.append(f"grid models {[r[1] for r in rows]}")
    for row in rows:
        cell = dict(zip(header, row))
        mean, std, secs = float(cell["mean_acc"]), float(cell["std_acc"]), float(cell["time_s"])
        if not (0.0 <= mean <= 100.0 and std >= 0.0 and secs > 0.0):
            problems.append(f"grid row out of range: {row}")
        if float(cell["C"]) not in GRID["c"] or float(cell["sigma"]) not in GRID["sigma"]:
            problems.append(f"grid winner outside the grid: {row}")
        expsat = cell["model"] == "expsat"
        if expsat and (float(cell["a"]) not in GRID["a"] or float(cell["lam"]) not in GRID["lambda"]):
            problems.append(f"grid winner outside the loss grid: {row}")
        if not expsat and (cell["a"], cell["lam"], cell["tau"]) != ("", "", ""):
            problems.append(f"hinge winner carries loss parameters: {row}")
    if expected is not None and _grid_rows_without_time(path) != expected["grid_rows"]:
        problems.append("grid winners or accuracies differ from the recorded values")
    return problems


def _model_arrays(model_path: Path):
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    beta = np.array(doc["beta"], dtype=float)
    support = np.array(doc["support_points"], dtype=float)
    return doc, beta, support


def _scale(X: np.ndarray, scaler) -> np.ndarray:
    if scaler is None:
        return X
    lo = np.array([a for a, _ in scaler], dtype=float)
    hi = np.array([b for _, b in scaler], dtype=float)
    span = hi - lo
    out = np.zeros_like(X)
    nz = span != 0
    out[:, nz] = 2.0 * (X[:, nz] - lo[nz]) / span[nz] - 1.0
    return out


def reference_decisions(doc: dict, beta: np.ndarray, support: np.ndarray, X: np.ndarray, block: int = 2048):
    """Decision values of a Gaussian-kernel model and their magnitudes
    sum_j |beta_j K(x_j, x)|, evaluated in blocks of query rows."""
    if doc["kernel"]["kind"] != "gaussian":
        raise ValueError(f"the workloads train Gaussian models, found {doc['kernel']['kind']!r}")
    sigma = float(doc["kernel"]["sigma"])
    z2 = np.einsum("ij,ij->i", support, support)
    values = np.empty(X.shape[0])
    mags = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], block):
        Q = X[lo:lo + block]
        d2 = np.maximum(np.einsum("ij,ij->i", Q, Q)[:, None] + z2[None, :] - 2.0 * (Q @ support.T), 0.0)
        K = np.exp(-d2 / (sigma * sigma))
        values[lo:lo + block] = K @ beta
        mags[lo:lo + block] = np.abs(K) @ np.abs(beta)
    return values, mags


def check_predictions(model_path: Path, query_path: Path, preds_path: Path, expected: dict | None) -> list[str]:
    doc, beta, support = _model_arrays(model_path)
    X, _ = read_dataset(query_path)
    ref, mag = reference_decisions(doc, beta, support, _scale(X, doc.get("scaler")))
    header, rows = _read_rows(preds_path)
    if header != ["prediction", "decision_value"] or len(rows) != X.shape[0]:
        return [f"predictions: header {header}, {len(rows)} rows for {X.shape[0]} queries"]
    out = np.array(rows, dtype=float)
    labels, values = out[:, 0], out[:, 1]
    tol = PREDICT_RTOL * mag
    problems = []
    off = int(np.count_nonzero(np.abs(values - ref) > tol))
    if off:
        problems.append(f"{off} decision values differ from the reference beyond rtol {PREDICT_RTOL}")
    if not np.array_equal(labels, np.where(values >= 0.0, 1.0, -1.0)):
        problems.append("prediction labels disagree with the printed decision values")
    clear = np.abs(ref) > tol
    wrong = int(np.count_nonzero(labels[clear] != np.where(ref[clear] >= 0.0, 1.0, -1.0)))
    if wrong:
        problems.append(f"{wrong} prediction labels differ from the reference")
    if expected is not None and _digest(labels.tobytes()) != expected["labels_sha256"]:
        problems.append("predicted labels differ from the recorded values")
    return problems


def check_train(stdout: str, model_path: Path, train_path: Path, expected: dict | None) -> list[str]:
    fields = _printed_fields(stdout)
    if "train_accuracy" not in fields:
        return [f"train printed no accuracy: {stdout!r}"]
    doc, beta, support = _model_arrays(model_path)
    X, y = read_dataset(train_path)
    problems = []
    if beta.shape != (X.shape[0],) or not np.isfinite(beta).all():
        problems.append(f"model has {beta.shape} coefficients for {X.shape[0]} samples or non-finite ones")
        return problems
    ref, mag = reference_decisions(doc, beta, support, _scale(X, doc.get("scaler")))
    ref_acc = 100.0 * float(np.mean(np.where(ref >= 0.0, 1.0, -1.0) == y))
    ambiguous = int(np.count_nonzero(np.abs(ref) <= PREDICT_RTOL * mag))
    acc = float(fields["train_accuracy"])
    if abs(acc - ref_acc) > 100.0 * ambiguous / X.shape[0] + 1e-9:
        problems.append(f"train accuracy {acc} differs from the reference {ref_acc}")
    if expected is not None and acc != expected["train_accuracy"]:
        problems.append(f"train accuracy {acc} differs from the recorded {expected['train_accuracy']}")
    return problems


def check_corrupt(stdout: str, data: Path, corrupted: Path, record: Path, rate: float) -> list[str]:
    before = data.read_text(encoding="utf-8").splitlines()
    n = len(before)
    count = int(math.floor(rate * n + 0.5))
    problems = []
    if f"touched {count} of {n} samples" not in stdout:
        problems.append(f"corrupt reported {stdout.strip()!r}, expected {count} of {n}")
    touched = json.loads(record.read_text(encoding="utf-8"))["touched_indices"]
    if len(touched) != count:
        problems.append(f"corruption record lists {len(touched)} samples, expected {count}")
    after = corrupted.read_text(encoding="utf-8").splitlines()
    changed = sorted(i for i, (a, b) in enumerate(zip(before, after)) if a != b)
    if len(after) != n or not set(changed) <= set(touched):
        problems.append("corrupted file changes rows outside the record")
    return problems


def check_restored(data: Path, restored: Path) -> list[str]:
    if restored.read_bytes() != data.read_bytes():
        return ["inverted corruption does not restore the input byte for byte"]
    return []


def average_ranks(acc: np.ndarray) -> np.ndarray:
    """Rank 1 for the highest accuracy in each row, ties averaged."""
    higher = (acc[:, None, :] > acc[:, :, None]).sum(axis=2)
    equal = (acc[:, None, :] == acc[:, :, None]).sum(axis=2)
    return 1.0 + higher + (equal - 1) / 2.0


def check_stats(stdout: str, table: Path, report: Path) -> list[str]:
    _, body = _read_rows(table)
    acc = np.array([row[1:] for row in body], dtype=float)
    d, p = acc.shape
    mean_ranks = average_ranks(acc).mean(axis=0)
    chi2 = 12.0 * d / (p * (p + 1)) * (float(np.sum(mean_ranks ** 2)) - p * (p + 1) ** 2 / 4.0)
    f_f = (d - 1) * chi2 / (d * (p - 1) - chi2)
    cd = NEMENYI_Q_6 * math.sqrt(p * (p + 1) / (6.0 * d))
    header, rows = _read_rows(report)
    cells = [dict(zip(header, row)) for row in rows]
    problems = []
    if len(cells) != p:
        return [f"stats report has {len(cells)} rows for {p} models"]
    got = np.array([[float(c["chi2"]), float(c["F_F"]), float(c["CD"])] for c in cells])
    if not _allclose(got, np.tile([chi2, f_f, cd], (p, 1))):
        problems.append(f"stats chi2/F_F/CD {got[0].tolist()} differ from {[chi2, f_f, cd]}")
    if not _allclose([float(c["mean_rank"]) for c in cells], mean_ranks):
        problems.append("stats mean ranks differ from a direct recomputation")
    if {c["reject"] for c in cells} != {"true" if f_f > F_CRIT_6_16 else "false"}:
        problems.append("stats rejection decision differs from F_F > critical F")
    printed = _printed_fields(stdout)
    if not _allclose([float(printed.get(k, "nan")) for k in ("chi2", "F_F", "CD")], [chi2, f_f, cd]):
        problems.append(f"stats printed {stdout.strip()!r}")
    return problems


def _expsat(u: np.ndarray, a: float = 1.0, lam: float = 1.0):
    pos = u > 0
    up = np.where(pos, u, 0.0)
    e = np.exp(-a * up)
    return np.where(pos, lam * (1.0 - (a * up + 1.0) * e), 0.0), np.where(pos, lam * a * a * up * e, 0.0)


def check_loss_curve(curve: Path) -> list[str]:
    _, rows = _read_rows(curve)
    out = np.array(rows, dtype=float)
    u = -2.0 + 0.01 * np.arange(int(round(5.0 / 0.01)) + 1)
    if out.shape != (u.size, 3) or not np.array_equal(out[:, 0], u):
        return [f"loss curve has shape {out.shape} or a different u grid"]
    value, deriv = _expsat(u)
    if not (_allclose(out[:, 1], value, atol=1e-15) and _allclose(out[:, 2], deriv, atol=1e-15)):
        return ["loss curve values differ from the expsat closed form"]
    return []


def check_calibration(stdout: str, calib: Path) -> list[str]:
    _, rows = _read_rows(calib)
    out = np.array(rows, dtype=float)
    f = -3.0 + 1e-3 * np.arange(int(round(6.0 / 1e-3)) + 1)
    if out.shape != (f.size, 2) or not np.array_equal(out[:, 0], f):
        return [f"calibration curve has shape {out.shape} or a different f grid"]
    risk = _expsat(1.0 - f)[0] * 0.7 + _expsat(1.0 + f)[0] * 0.3
    problems = []
    if not _allclose(out[:, 1], risk, atol=1e-15):
        problems.append("conditional risk differs from its closed form")
    if "sign_matches_bayes=True" not in stdout:
        problems.append(f"calibration printed {stdout.strip()!r}")
    return problems
