"""Dataset ingestion, scaling, fold plans, corruption procedures, and the
JSON layout check, canonical JSON text and dataclass codec shared by
every file the package writes or reads as JSON.

Datasets are immutable after construction (arrays are marked read-only);
every operation returns a new value. Corruption operations return an
audit record that carries everything needed to restore the original
dataset bit-exactly, including the pre-corruption feature values, since
multiply-then-divide by the outlier factor is not exact in floating
point.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import CapacityError, DataFormatError, ParameterError, ShapeError


class DataFormat(str, enum.Enum):
    CSV = "csv"
    SPARSE = "sparse"


class CorruptionMode(str, enum.Enum):
    OUTLIERS = "outliers"
    LABEL_NOISE = "labels"


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    name: str = "dataset"
    scaler: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ShapeError("features must be n-by-m with one label per row", X.shape, y.shape)
        if not np.isfinite(X).all():
            raise ParameterError("features contain NaN or Inf")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise ParameterError("labels must be exactly -1 or +1")
        X = X.copy()
        y = y.copy()
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def normalized(self) -> bool:
        """Whether the features were scaled, which is when a scaler is held."""
        return self.scaler is not None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return replace(self, X=self.X[idx], y=self.y[idx])


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def _is(value, kind) -> bool:
    return type(value) is kind or (kind is float and type(value) is int and abs(value) <= sys.float_info.max)


def check_layout(value, schema, where: str, error=DataFormatError) -> None:
    """Raise ``error`` naming the first place where a parsed JSON ``value``
    departs from ``schema``.

    A dict is an object with exactly these keys, a one-element list is a
    list of that item, a tuple ``(item,)`` is that item or null, and
    ``float`` admits any JSON number a float holds: an integer past the
    float range is refused here, before any conversion overflows.
    """
    if isinstance(schema, tuple):
        if value is None:
            return
        schema = schema[0]
    if isinstance(schema, dict):
        if not isinstance(value, dict) or value.keys() != schema.keys():
            raise error(f"{where} must be an object with the keys {sorted(schema)}")
        for key, item in schema.items():
            check_layout(value[key], item, f"{where}.{key}", error)
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise error(f"{where} must be a list")
        if not (schema[0] is float and {type(v) for v in value} <= {float}):
            for i, item in enumerate(value):
                check_layout(item, schema[0], f"{where}[{i}]", error)
    elif not _is(value, schema):
        got = "an integer past the float range" if schema is float and type(value) is int else type(value).__name__
        raise error(f"{where} must be of type {schema.__name__}, got {got}")


def dump_json(doc) -> str:
    """The canonical JSON text of ``doc``: sorted keys, an indent of two
    and a final newline, so equal documents give identical bytes. Model
    files, corruption records and manifests are written in it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_json(text: str, what: str, error=DataFormatError):
    """The JSON document in ``text``; text that is not valid JSON raises
    ``error`` with the message ``<what> is not valid JSON: <reason>``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than Python converts
        raise error(f"{what} is not valid JSON: {exc}") from None


def layout(hint):
    """The :func:`check_layout` schema of the JSON document of a dataclass,
    from its field types: a nested dataclass is its own layout, an enum
    ``str``, ``tuple[X, ...]`` the list ``[X]`` and ``X | None`` the
    nullable ``(X,)``."""
    if is_dataclass(hint):
        return {name: layout(item) for name, item in get_type_hints(hint).items()}
    if get_origin(hint) is tuple:
        return [layout(get_args(hint)[0])]
    if type(None) in get_args(hint):
        return (layout(get_args(hint)[0]),)
    return str if isinstance(hint, enum.EnumMeta) else hint


def to_doc(value):
    """The JSON document of a dataclass value: fields by name, enums as
    their values, tuples as lists and nested dataclasses as objects."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_doc(v) for v in value]
    return value.value if isinstance(value, enum.Enum) else value


def from_doc(hint, doc):
    """The value of type ``hint`` that a JSON document fitting
    :func:`layout` holds, the inverse of :func:`to_doc`. An enum field is
    given its value, which the dataclass converts; an invalid value raises
    the dataclass's own error."""
    if is_dataclass(hint):
        return hint(**{name: from_doc(item, doc[name]) for name, item in get_type_hints(hint).items()})
    return tuple(doc) if get_origin(hint) is tuple else doc


@dataclass(frozen=True)
class CorruptionRecord:
    """The audit record of one corruption, as written beside its output.
    ``mode`` may be given as its value; one that is no
    :class:`CorruptionMode` is a malformed record (``DataFormatError``)."""

    mode: CorruptionMode
    rate: float
    touched_indices: tuple[int, ...]
    touched_features: tuple[int, ...] = ()
    original_values: tuple[float, ...] = ()
    factor: float = 10.0
    seed: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", CorruptionMode(self.mode))
        except ValueError:
            raise DataFormatError(f"corruption record has unknown mode {self.mode!r}") from None


def _normalize_labels(raw: list[float]) -> np.ndarray:
    values = set(raw)
    if values <= {0.0, 1.0}:
        # common repository encoding; 0 maps to -1
        return np.array([1.0 if v == 1.0 else -1.0 for v in raw])
    if values <= {-1.0, 1.0}:
        return np.array(raw, dtype=float)
    raise DataFormatError(f"labels must be from {{0,1}} or {{-1,+1}}, found {sorted(map(float, values))}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_csv(text: str, name: str) -> Dataset:
    rows: list[list[float]] = []
    linenos: list[int] = []
    lines = text.splitlines()
    start = 0
    if lines and not any(_is_number(c) for c in lines[0].split(",")):
        start = 1  # header row
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        try:
            # float ignores the padding str.strip removes, except \x1f in an
            # ASCII cell; the stripped cells parse that, and name a bad cell
            # without its padding
            rows.append(list(map(float, line.split(","))))
        except ValueError:
            try:
                rows.append([float(c.strip()) for c in line.split(",")])
            except ValueError as exc:
                raise DataFormatError(f"non-numeric cell: {exc}", line=lineno) from None
        linenos.append(lineno)
        if len(rows[-1]) != len(rows[0]):
            raise DataFormatError(
                f"expected {len(rows[0])} columns, found {len(rows[-1])}", line=lineno
            )
        if len(rows[-1]) < 2:
            raise DataFormatError("rows need at least one feature and a label", line=lineno)
    if not rows:
        raise DataFormatError("file contains no data rows")
    arr = np.array(rows, dtype=float)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DataFormatError("NaN or Inf cell", line=linenos[int(np.argmin(finite))])
    return Dataset(X=arr[:, :-1], y=_normalize_labels(list(arr[:, -1])), name=name)


def _parse_sparse(text: str, name: str) -> Dataset:
    labels: list[float] = []
    entries: list[dict[int, float]] = []
    width = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            label = math.nan
        if not math.isfinite(label):
            raise DataFormatError(f"bad label {parts[0]!r}", line=lineno)
        labels.append(label)
        row: dict[int, float] = {}
        for token in parts[1:]:
            try:
                idx_s, val_s = token.split(":")
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataFormatError(f"bad index:value token {token!r}", line=lineno) from None
            if idx < 1:
                raise DataFormatError(f"indices are 1-based, got {idx}", line=lineno)
            if idx - 1 in row:
                raise DataFormatError(f"index {idx} appears twice", line=lineno)
            if not math.isfinite(val):
                raise DataFormatError(f"NaN or Inf value in {token!r}", line=lineno)
            row[idx - 1] = val
            width = max(width, idx)
        entries.append(row)
    if not entries:
        raise DataFormatError("file contains no data rows")
    # the kernel loads here, not with this module, which most commands use without it
    from .kernel import GRAM_CAPACITY

    limit = GRAM_CAPACITY**2
    if len(entries) * width > limit:
        raise CapacityError(f"{len(entries)} rows of {width} features exceed the {limit}-entry dense matrix cap")
    X = np.zeros((len(entries), width), dtype=float)
    for i, row in enumerate(entries):
        for j, v in row.items():
            X[i, j] = v
    return Dataset(X=X, y=_normalize_labels(labels), name=name)


def load_dataset(path, fmt: DataFormat = DataFormat.CSV) -> Dataset:
    """Load a dataset from disk.

    CSV files use the last column as the label ({0,1} is remapped to
    {-1,+1} with 0 -> -1); the first line is a header row when none of
    its cells is a number, and data otherwise, so a non-numeric cell in it
    is a ``DataFormatError``. Sparse files use ``label idx:val ...`` lines
    with 1-based indices and implicit zeros.
    """
    fmt = DataFormat(fmt)
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    if fmt is DataFormat.CSV:
        return _parse_csv(text, stem)
    return _parse_sparse(text, stem)


def _cell(value) -> str:
    """The CSV text of one cell: empty for None, ``true`` or ``false`` for
    a bool, and ``str`` otherwise, which for a float is its full
    round-trip ``repr``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_rows(path, rows, header=None) -> None:
    """Write ``rows`` of cells as comma-separated lines, each cell's text
    from :func:`_cell`, after the ``header`` line when one is given. Each
    line is formatted as it is written, so the text is never held whole.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset as feature columns plus a trailing label column.

    Floats are emitted with ``repr`` so a reload round-trips bit-exactly.
    """
    write_rows(path, (x.tolist() + [label] for x, label in zip(ds.X, ds.y.tolist())))


def normalize(ds: Dataset) -> Dataset:
    """Affinely map every feature onto [-1, 1]; constant features map to 0."""
    if ds.normalized:
        raise ParameterError(f"dataset {ds.name!r} is already normalized")
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    scaler = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    return replace(ds, X=_scale(ds.X, scaler), scaler=scaler)


def apply_scaler(ds: Dataset, scaler) -> Dataset:
    """Apply a previously fitted scaler; values outside the fitted range
    land outside [-1, 1]."""
    scaler = tuple((float(a), float(b)) for a, b in scaler)
    if len(scaler) != ds.m:
        raise ShapeError("scaler width must match feature count", len(scaler), ds.m)
    return replace(ds, X=_scale(ds.X, scaler), scaler=scaler)


def _scale(X: np.ndarray, scaler) -> np.ndarray:
    """``X`` scaled by ``scaler``; ``ParameterError`` naming the first
    feature (0-based) where a scaled value is not finite, which finite
    values far apart, or far outside the scaler's range, can give."""
    lo = np.array([a for a, _ in scaler])
    hi = np.array([b for _, b in scaler])
    out = np.zeros_like(X)
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        nz = span != 0
        out[:, nz] = 2.0 * (X[:, nz] - lo[nz]) / span[nz] - 1.0
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise ParameterError(f"scaling overflows: feature {int(np.argmin(finite))} (0-based) "
                             "has values past the float range once scaled")
    return out


def make_folds(n: int, k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded uniform shuffle with round-robin fold assignment."""
    if not 2 <= k <= n:
        raise ParameterError(f"fold count k={k} must satisfy 2 <= k <= n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=int)
    assignments[perm] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments)


def _check_rate(rate: float) -> None:
    if not 0.0 < rate < 1.0:
        raise ParameterError(f"corruption rate must lie in (0, 1), got {rate}")


def _corruption_count(rate: float, n: int) -> int:
    _check_rate(rate)
    # round-half-up keeps the paper-style integer counts deterministic
    return int(math.floor(rate * n + 0.5))


def _check_factor(factor: float) -> None:
    if not math.isfinite(factor):
        raise ParameterError(f"factor must be finite, got factor={factor!r}")


def check_corruption(rate: float, factor: float) -> None:
    """Raise ``ParameterError`` unless ``factor`` is finite and ``rate``
    lies in (0, 1), whether the run uses them or not: label noise ignores
    the factor, but a manifest records it."""
    _check_factor(factor)
    _check_rate(rate)


def inject_outliers(ds: Dataset, rate: float, factor: float = 10.0, seed: int = 0):
    """Multiply one randomly chosen feature of round(rate*n) samples by
    ``factor``. Returns the corrupted dataset and an audit record.

    A non-finite factor, or a product past the float range, raises
    ``ParameterError``."""
    _check_factor(factor)
    count = _corruption_count(rate, ds.n)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=count, replace=False))
    feats = rng.integers(0, ds.m, size=count)
    X = ds.X.copy()
    originals = tuple(float(X[i, j]) for i, j in zip(idx, feats))
    with np.errstate(over="ignore"):
        for i, j in zip(idx, feats):
            X[i, j] = X[i, j] * factor
            if not math.isfinite(X[i, j]):
                raise ParameterError(f"factor={factor!r} takes feature {j} of sample {i} (0-based) "
                                     "past the float range")
    record = CorruptionRecord(
        mode=CorruptionMode.OUTLIERS,
        rate=rate,
        touched_indices=tuple(int(i) for i in idx),
        touched_features=tuple(int(j) for j in feats),
        original_values=originals,
        factor=factor,
        seed=seed,
    )
    return replace(ds, X=X), record


def inject_label_noise(ds: Dataset, rate: float, seed: int = 0):
    """Flip the labels of round(rate*n) distinct samples."""
    count = _corruption_count(rate, ds.n)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=count, replace=False))
    y = ds.y.copy()
    originals = tuple(float(y[i]) for i in idx)
    y[idx] = -y[idx]
    record = CorruptionRecord(
        mode=CorruptionMode.LABEL_NOISE,
        rate=rate,
        touched_indices=tuple(int(i) for i in idx),
        original_values=originals,
        seed=seed,
    )
    return replace(ds, y=y), record


def corrupt(ds: Dataset, mode: CorruptionMode, rate: float, factor: float, seed: int):
    """Corrupt ``ds`` by ``mode``: :func:`inject_outliers` with ``factor``,
    or :func:`inject_label_noise`, which ignores ``factor``. Returns the
    corrupted dataset and its audit record. A non-finite factor raises
    ``ParameterError`` in either mode (:func:`check_corruption`)."""
    check_corruption(rate, factor)
    if CorruptionMode(mode) is CorruptionMode.OUTLIERS:
        return inject_outliers(ds, rate, factor=factor, seed=seed)
    return inject_label_noise(ds, rate, seed=seed)


def invert_corruption(ds: Dataset, record: CorruptionRecord) -> Dataset:
    """Undo a recorded corruption, restoring the original dataset bit-exactly.

    A record that does not fit the dataset raises ``DataFormatError``.
    """
    if not (all(0 <= i < ds.n for i in record.touched_indices)
            and all(0 <= j < ds.m for j in record.touched_features)):
        raise DataFormatError(f"corruption record indices fall outside the {ds.n}x{ds.m} dataset")
    if record.mode is CorruptionMode.OUTLIERS:
        if not len(record.touched_indices) == len(record.touched_features) == len(record.original_values):
            raise DataFormatError("corruption record needs one feature and one value per touched sample")
        X = ds.X.copy()
        for i, j, v in zip(record.touched_indices, record.touched_features, record.original_values):
            X[i, j] = v
        return replace(ds, X=X)
    y = ds.y.copy()
    for i in record.touched_indices:
        y[i] = -y[i]
    return replace(ds, y=y)


def two_cluster_dataset(
    n: int = 200,
    m: int = 2,
    separation: float = 4.0,
    spread: float = 0.4,
    seed: int = 0,
    name: str = "two-clusters",
) -> Dataset:
    """Balanced Gaussian blobs around two centroids ``separation`` apart.

    Handy as an easy, linearly separable reference task whose labels a
    nearest-centroid rule recovers exactly when ``separation >> spread``.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    centers = np.zeros((2, m))
    centers[0, 0] = -separation / 2.0
    centers[1, 0] = separation / 2.0
    sizes = (half, n - half)
    X = np.vstack([c + spread * rng.standard_normal((s, m)) for c, s in zip(centers, sizes)])
    y = np.concatenate([np.full(sizes[0], -1.0), np.full(sizes[1], 1.0)])
    order = rng.permutation(n)
    return Dataset(X=X[order], y=y[order], name=name)
