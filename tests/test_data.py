import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satsvm import (
    CorruptionMode,
    DataFormat,
    DataFormatError,
    Dataset,
    ParameterError,
    apply_scaler,
    corrupt,
    inject_label_noise,
    inject_outliers,
    invert_corruption,
    load_dataset,
    make_folds,
    normalize,
    two_cluster_dataset,
    write_csv,
)
from satsvm.data import _is_number, _normalize_labels, _parse_csv, dump_json, from_doc, parse_json, to_doc


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,4,-1\n")
        ds = load_dataset(p)
        assert ds.X.shape == (2, 2)
        assert (ds.y == np.array([1.0, -1.0])).all()
        assert ds.name == "d"

    def test_zero_one_labels_remapped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,4,0\n5,6,0\n")
        ds = load_dataset(p)
        assert (ds.y == np.array([1.0, -1.0, -1.0])).all()

    def test_header_detected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n1,2,1\n3,4,-1\n")
        assert load_dataset(p).n == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,oops,-1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p)

    def test_mixed_label_alphabet_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,0\n3,4,-1\n")
        with pytest.raises(DataFormatError, match="labels"):
            load_dataset(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            load_dataset(p)

    def test_roundtrip_via_write_csv(self, tmp_path):
        ds = two_cluster_dataset(n=20, seed=3)
        p = tmp_path / "d.csv"
        write_csv(ds, p)
        back = load_dataset(p)
        assert (back.X == ds.X).all()
        assert (back.y == ds.y).all()


    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_nonfinite_cell_rejected_with_line(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"f1,f2,label\n1,2,1\n\n3,{cell},-1\n")
        with pytest.raises(DataFormatError, match="line 4: NaN or Inf"):
            load_dataset(p)

    def test_nonfinite_label_rejected_with_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,4,nan\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p)


def _ref_parse_csv(text: str, name: str) -> Dataset:
    """The CSV parser before its unstripped fast path, frozen as an oracle:
    every cell stripped, then converted."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    lines = text.splitlines()
    start = 0
    if lines and not any(_is_number(c) for c in lines[0].split(",")):
        start = 1  # header row
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([float(c) for c in cells])
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


# cells as written, padded cells, the whitespace str.strip removes (unicode
# and \x1f included), non-finite and non-numeric text, underscores, empty cells
_PADDING = st.sampled_from(["", " ", "\t", "  ", "\u2003", "\xa0", "\x1f", "\x0b", "\x0c", "\u3000"])
_CELL_TEXT = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "-2.25e3", "1e-300", ".5", "+3", "1_0", "1__0", "_1", "nan", "-inf",
                     "Infinity", "", "abc", "1.0.0", "٣", "1e", "0x1"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_CELL = st.tuples(_PADDING, _CELL_TEXT, _PADDING).map("".join)
_LABEL = st.tuples(_PADDING, st.sampled_from(["0", "1", "-1", " 1", "1.0", "2", "x"]), _PADDING).map("".join)
_ROW = st.tuples(st.lists(_CELL, max_size=3), _LABEL).map(lambda r: ",".join([*r[0], r[1]]))
_LINE = st.one_of(_ROW, _ROW, _ROW, st.sampled_from(["", "  ", "\t", "f1,f2,label", "x, y ,label"]))
_CSV_TEXT = st.tuples(st.lists(_LINE, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans()).map(
    lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


class TestCsvParserMatchesStrippedOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_CSV_TEXT)
    def test_same_arrays_or_same_message(self, text):
        try:
            want = _ref_parse_csv(text, "d")
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got:
                _parse_csv(text, "d")
            assert str(got.value) == str(exc)
            return
        got = _parse_csv(text, "d")
        assert got.X.shape == want.X.shape and got.X.tobytes() == want.X.tobytes()
        assert got.y.tobytes() == want.y.tobytes()

    @pytest.mark.parametrize("line", ["1,\x1f2 ,1", " 1 ,\u20032\u2003, 0", "1_0, 2,1"])
    def test_padding_float_keeps_is_parsed(self, line):
        assert _parse_csv(line, "d").X.tolist() == [[10.0 if "_" in line else 1.0, 2.0]]

    def test_bad_cell_is_named_without_padding(self):
        with pytest.raises(DataFormatError, match=r"^line 2: non-numeric cell: could not convert string to "
                                                   r"float: 'oops'$"):
            _parse_csv("1,2,1\n3,  oops\t,0\n", "d")


class TestLoadSparse:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 2:0.5\n-1 1:1.0 3:2.0\n")
        ds = load_dataset(p, DataFormat.SPARSE)
        assert ds.X.shape == (2, 3)
        assert (ds.X[0] == np.array([0.0, 0.5, 0.0])).all()
        assert (ds.X[1] == np.array([1.0, 0.0, 2.0])).all()
        assert (ds.y == np.array([1.0, -1.0])).all()

    def test_bad_token(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 2:0.5\n-1 nope\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p, DataFormat.SPARSE)

    def test_zero_based_index_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 0:0.5\n")
        with pytest.raises(DataFormatError, match="1-based"):
            load_dataset(p, DataFormat.SPARSE)

    def test_repeated_index_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("-1 2:0.1\n1 1:0.5 1:0.7\n")
        with pytest.raises(DataFormatError, match="line 2: index 1 appears twice"):
            load_dataset(p, DataFormat.SPARSE)

    @pytest.mark.parametrize("line", ["1 1:nan", "1 2:inf", "inf 1:0.5", "nan"])
    def test_nonfinite_value_or_label_rejected(self, tmp_path, line):
        p = tmp_path / "d.txt"
        p.write_text(f"-1 2:0.1\n{line}\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p, DataFormat.SPARSE)


class TestNormalize:
    def test_affine_endpoints(self):
        ds = Dataset(X=np.array([[0.0], [5.0], [10.0]]), y=np.array([1.0, -1.0, 1.0]))
        out = normalize(ds)
        assert (out.X[:, 0] == np.array([-1.0, 0.0, 1.0])).all()
        assert out.scaler == ((0.0, 10.0),)

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(X=np.array([[7.0], [7.0], [7.0]]), y=np.array([1.0, -1.0, 1.0]))
        assert (normalize(ds).X == 0.0).all()

    def test_two_point_column(self):
        ds = Dataset(X=np.array([[-2.0], [2.0]]), y=np.array([1.0, -1.0]))
        assert (normalize(ds).X[:, 0] == np.array([-1.0, 1.0])).all()

    def test_double_normalization_rejected(self):
        ds = normalize(Dataset(X=np.array([[0.0], [1.0]]), y=np.array([1.0, -1.0])))
        with pytest.raises(ParameterError, match="already normalized"):
            normalize(ds)

    def test_every_nonconstant_column_hits_endpoints(self):
        ds = normalize(two_cluster_dataset(n=50, m=3, seed=1))
        assert (ds.X.min(axis=0) == -1.0).all()
        assert (ds.X.max(axis=0) == 1.0).all()


class TestApplyScaler:
    def test_documented_values(self):
        scaler = ((0.0, 10.0),)
        ds = Dataset(X=np.array([[20.0], [5.0], [0.0]]), y=np.array([1.0, -1.0, 1.0]))
        out = apply_scaler(ds, scaler)
        assert (out.X[:, 0] == np.array([3.0, 0.0, -1.0])).all()


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, seed=1)
        sizes = [len(plan.fold_indices(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        plan = make_folds(11, 5, seed=1)
        sizes = sorted(len(plan.fold_indices(f)) for f in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = make_folds(37, 5, seed=9)
        b = make_folds(37, 5, seed=9)
        assert (a.assignments == b.assignments).all()

    def test_partition(self):
        plan = make_folds(23, 5, seed=4)
        seen = np.concatenate([plan.fold_indices(f) for f in range(5)])
        assert sorted(seen) == list(range(23))
        for f in range(5):
            train = set(plan.train_indices(f))
            test = set(plan.fold_indices(f))
            assert not train & test
            assert train | test == set(range(23))


class TestCorruption:
    def test_outlier_count(self):
        ds = two_cluster_dataset(n=100, seed=0)
        _, rec = inject_outliers(ds, 0.05, seed=1)
        assert len(rec.touched_indices) == 5
        assert len(set(rec.touched_indices)) == 5

    def test_zero_feature_stays_zero(self):
        X = np.zeros((10, 1))
        ds = Dataset(X=X, y=np.array([1.0, -1.0] * 5))
        out, _ = inject_outliers(ds, 0.2, seed=3)
        assert (out.X == 0.0).all()

    def test_same_seed_same_record(self):
        ds = two_cluster_dataset(n=60, seed=2)
        _, r1 = inject_outliers(ds, 0.1, seed=7)
        _, r2 = inject_outliers(ds, 0.1, seed=7)
        assert r1 == r2

    def test_label_noise_count(self):
        ds = two_cluster_dataset(n=100, seed=0)
        out, rec = inject_label_noise(ds, 0.30, seed=1)
        assert len(rec.touched_indices) == 30
        assert int((out.y != ds.y).sum()) == 30

    def test_round_half_up(self):
        ds = two_cluster_dataset(n=7, seed=0)
        _, rec = inject_label_noise(ds, 0.10, seed=1)  # 0.7 rounds up
        assert len(rec.touched_indices) == 1

    def test_label_flip_involution(self):
        ds = two_cluster_dataset(n=40, seed=5)
        noisy, rec = inject_label_noise(ds, 0.2, seed=9)
        restored = invert_corruption(noisy, rec)
        assert (restored.y == ds.y).all()

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2, 0.3])
    def test_outlier_invert_bit_exact(self, rate):
        ds = two_cluster_dataset(n=100, seed=8)
        corrupted, rec = inject_outliers(ds, rate, seed=11)
        restored = invert_corruption(corrupted, rec)
        assert (restored.X == ds.X).all()
        assert (restored.y == ds.y).all()

    def test_rate_out_of_range(self):
        ds = two_cluster_dataset(n=20, seed=0)
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ParameterError, match="rate"):
                inject_outliers(ds, bad)

    @pytest.mark.parametrize("mode", ["outliers", "labels"])
    def test_corrupt_calls_the_mode_injector(self, mode):
        ds = two_cluster_dataset(n=50, seed=2)
        got, record = corrupt(ds, mode, 0.2, 5.0, 7)
        if mode == "outliers":
            want, want_record = inject_outliers(ds, 0.2, factor=5.0, seed=7)
        else:
            want, want_record = inject_label_noise(ds, 0.2, seed=7)
            assert record.factor == 10.0  # label noise ignores the factor
        assert record == want_record
        assert (got.X == want.X).all() and (got.y == want.y).all()

    def test_record_serialization_roundtrip(self):
        ds = two_cluster_dataset(n=30, seed=1)
        _, rec = inject_outliers(ds, 0.1, seed=2)
        from satsvm.data import CorruptionRecord

        assert from_doc(CorruptionRecord, parse_json(dump_json(to_doc(rec)), "record")) == rec
        assert rec.mode is CorruptionMode.OUTLIERS


class TestDatasetInvariants:
    def test_labels_validated(self):
        with pytest.raises(ParameterError, match="labels"):
            Dataset(X=np.zeros((2, 1)), y=np.array([1.0, 0.5]))

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ParameterError, match="NaN"):
            Dataset(X=np.array([[np.nan], [1.0]]), y=np.array([1.0, -1.0]))

    def test_arrays_immutable(self):
        ds = two_cluster_dataset(n=10, seed=0)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            ds.y[0] = -ds.y[0]

    def test_normalized_follows_the_scaler(self):
        ds = two_cluster_dataset(n=10, seed=0)
        scaled = normalize(ds)
        assert not ds.normalized
        assert scaled.normalized and apply_scaler(ds, scaled.scaler).normalized
        with pytest.raises(AttributeError):
            ds.normalized = True


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# JSON documents with every kind of leaf, the float lists (and lists of
# them) that dump_json lays out itself, and non-finite floats among them
_DOCS = st.recursive(
    st.one_of(st.text(max_size=5), st.integers(), st.booleans(), st.none(), st.floats(),
              st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]), st.lists(_FINITE, max_size=5),
              st.lists(st.lists(_FINITE, min_size=1, max_size=3), max_size=3),
              st.lists(st.lists(st.floats(), min_size=1, max_size=3), max_size=3)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=10,
)


class TestJsonCodec:
    @settings(max_examples=200, deadline=None)
    @given(_DOCS)
    def test_text_is_that_of_json(self, doc):
        assert dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_canonical_text(self):
        doc = {"b": [1, 2.5], "a": None}
        assert dump_json(doc) == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert parse_json(dump_json(doc), "doc") == doc

    @pytest.mark.parametrize("error", [DataFormatError, ParameterError])
    def test_decode_error_is_the_callers_class(self, error):
        with pytest.raises(error, match=r"^thing t\.json is not valid JSON: Expecting property name"):
            parse_json("{broken", "thing t.json", error)
        with pytest.raises(DataFormatError, match="^thing is not valid JSON"):
            parse_json("", "thing")
