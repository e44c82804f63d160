"""The dataclass JSON codec, and the layout checks derived from it, on
model files and corruption records."""

import contextlib
import io
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satsvm import (
    CorruptionMode,
    CorruptionRecord,
    KernelSpec,
    LossKind,
    LossSpec,
    TrainerConfig,
    corrupt,
    load_model,
    save_model,
    two_cluster_dataset,
    write_csv,
)
from satsvm.cli import _defaults, build_parser, main
from satsvm.data import dump_json, from_doc, parse_json, to_doc
from satsvm.trainer import FLAT_PARAMETERS

LOSSES = {
    LossKind.ZERO_ONE: LossSpec.zero_one(),
    LossKind.HINGE: LossSpec.hinge(),
    LossKind.PINBALL: LossSpec.pinball(0.3),
    LossKind.TRUNCATED_HINGE: LossSpec.truncated_hinge(2.0),
    LossKind.TRUNCATED_PINBALL: LossSpec.truncated_pinball(0.3, 1.5, 2.5),
    LossKind.EXPSAT: LossSpec.expsat(a=0.5, lam=1.5),
}


def _through_text(cls, value):
    return from_doc(cls, parse_json(dump_json(to_doc(value)), "document"))


class TestRoundTrip:
    def test_losses_cover_every_kind(self):
        assert set(LOSSES) == set(LossKind)

    @pytest.mark.parametrize("kind", sorted(LOSSES))
    def test_trainer_config(self, kind):
        config = TrainerConfig(C=30.0, loss=LOSSES[kind], kernel=KernelSpec.gaussian(0.3), r=0.3,
                               batch_size=8, max_iters=50, seed=7)
        assert _through_text(TrainerConfig, config) == config

    @pytest.mark.parametrize("kernel", [KernelSpec.gaussian(0.3), KernelSpec.linear()])
    def test_kernel(self, kernel):
        assert _through_text(KernelSpec, kernel) == kernel
        assert _through_text(TrainerConfig, TrainerConfig(kernel=kernel)).kernel == kernel

    @pytest.mark.parametrize("mode", list(CorruptionMode))
    def test_corruption_record(self, mode):
        _, record = corrupt(two_cluster_dataset(n=30, seed=1), mode, 0.2, 10.0, 3)
        assert record.touched_indices
        back = _through_text(CorruptionRecord, record)
        assert back == record and back.mode is mode

    def test_enums_as_values_tuples_as_lists(self):
        _, record = corrupt(two_cluster_dataset(n=30, seed=1), CorruptionMode.OUTLIERS, 0.2, 10.0, 3)
        doc = to_doc(record)
        assert doc["mode"] == "outliers" and type(doc["mode"]) is str
        assert doc["touched_indices"] == list(record.touched_indices)
        assert to_doc(TrainerConfig())["loss"] == {"kind": "expsat", "a": 1.0, "lam": 1.0, "tau": 0.5,
                                                   "delta": 1.0, "delta1": 1.0, "delta2": 1.0}


def test_every_trainer_field_has_a_train_flag_with_its_default():
    """Each field of the loss, the kernel and the config (but the seed,
    which the CLI takes as the root of its child streams) is a train flag
    whose default is the dataclass default and whose type is the field's;
    a kind is keyed by its spec."""
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices["train"]
    dests = {a.dest for a in sub._actions}
    config = TrainerConfig()
    expected = {"loss": config.loss.kind.value, "kernel": config.kernel.kind.value}
    for spec in (config.loss, config.kernel):
        expected.update({f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "kind"})
    expected.update({f.name: getattr(config, f.name) for f in fields(config)
                     if f.name not in ("seed", "loss", "kernel")})
    for key, default in expected.items():
        assert key in dests, key
        assert _defaults("train")[key] == default, key
    # and each flag converts its text to the type the trainer declares
    types = {a.dest: a.type for a in sub._actions}
    assert all(types[key] is p.type for key, p in FLAT_PARAMETERS.items()), types


# Single edits of a JSON document: drop a key, add a key, or put another
# value in place of one, at any depth.
REPLACEMENTS = [True, None, "x", [1.0], {"k": 1}, [[1.0]], 2]


def _paths(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@st.composite
def _edited(draw, doc):
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add":
        _, target = draw(st.sampled_from([(p, v) for p, v in paths if isinstance(v, dict)]))
        target["extra"] = draw(st.sampled_from(REPLACEMENTS))
        return doc
    parents = dict(paths)
    path = draw(st.sampled_from([p for p, _ in paths if p and (action == "replace" or isinstance(parents[p[:-1]], dict))]))
    parent = parents[path[:-1]]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return doc


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A model, the data it was trained on, and an outlier record with its
    corrupted data."""
    root = tmp_path_factory.mktemp("codec")
    data = root / "data.csv"
    write_csv(two_cluster_dataset(n=12, m=2, seed=3), data)
    model = root / "model.json"
    assert _run(["train", "--input", str(data), "--output", str(model), "--max-iters", "20"])[0] == 0
    corrupted = root / "corrupted.csv"
    assert _run(["corrupt", "--input", str(data), "--output", str(corrupted), "--rate", "0.25"])[0] == 0
    return root, data, json.loads(model.read_text()), corrupted, json.loads((root / "corrupted.csv.record.json").read_text())


_ONE_EDIT = settings(max_examples=150, deadline=None, derandomize=True)


@given(data=st.data())
@_ONE_EDIT
def test_edited_model_file_is_rejected_in_one_line_or_round_trips(files, data):
    root, csv, doc, _, _ = files
    edited = data.draw(_edited(doc))
    path = root / "edited_model.json"
    path.write_text(json.dumps(edited))
    code, err = _run(["predict", "--model", str(path), "--input", str(csv), "--output", str(root / "p.csv")])
    if code == 0:
        assert json.loads(save_model(load_model(path.read_text()))) == edited
    else:
        assert code == 3, err
        assert err.startswith("satsvm: ") and err.count("\n") == 1, err


@given(data=st.data())
@_ONE_EDIT
def test_edited_record_is_rejected_in_one_line_or_round_trips(files, data):
    root, _, _, corrupted, doc = files
    edited = data.draw(_edited(doc))
    path = root / "edited_record.json"
    path.write_text(json.dumps(edited))
    code, err = _run(["corrupt", "--input", str(corrupted), "--invert", "--record", str(path),
                      "--output", str(root / "r.csv")])
    if code == 0:
        assert to_doc(from_doc(CorruptionRecord, edited)) == edited
    else:
        assert code == 3, err
        assert err.startswith("satsvm: ") and err.count("\n") == 1, err
