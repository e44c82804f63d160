"""Span tracing of satsvm's public functions, from outside the program.

:class:`Tracer` wraps every public function of the layer modules
(``satsvm.<layer>``, names not starting with ``_``) plus
``Dataset.subset``, wherever a loaded ``satsvm.*`` module binds it: as a
module attribute (``cli`` and ``harness`` import ``fit``, ``gram_matrix``
and others by name) or as a value of a module-level dict (the CLI's
command table). Each call records a span ``(key, start, end, parent,
info)`` in memory; :func:`layer_metrics` reduces the spans after the run.
A public name that no longer exists is simply absent, so its metrics
read zero.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "data", "kernel", "loss", "trainer", "harness", "stats", "theory")

_PREDICT = {"decision_value", "decision_values", "predict", "predict_batch"}
_PREP = {"normalize", "apply_scaler", "make_folds", "subset"}
_CORRUPT = {"inject_outliers", "inject_label_noise", "invert_corruption"}


def _first(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs.get(name)


# What a span keeps besides its times, taken after the call returns: only
# references and lengths, so that recording stays cheap.
_INFO = {
    ("kernel", "gram_matrix"): lambda a, k, r: (_first(a, k, "spec"), _second(a, k, "X")),
    ("trainer", "fit"): lambda a, k, r: (_first(a, k, "config"), _second(a, k, "X")),
    ("trainer", "decision_values"): lambda a, k, r: _second(a, k, "X"),
    ("trainer", "predict_batch"): lambda a, k, r: _second(a, k, "X"),
    ("trainer", "save_model"): lambda a, k, r: len(r),
    ("trainer", "load_model"): lambda a, k, r: len(_first(a, k, "text")),
    ("data", "load_dataset"): lambda a, k, r: str(_first(a, k, "path")),
}


class Tracer:
    """Install with :meth:`install`, run, then :meth:`uninstall`; the
    spans of the run are in :attr:`spans`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fn, key):
        spans, stack, info = self.spans, self._stack, _INFO.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, None)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (key, start, end, parent, info(args, kwargs, result) if info else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"satsvm.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, (layer, name))
        for modname, mod in list(sys.modules.items()):
            if modname != "satsvm" and not modname.startswith("satsvm."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._undo.append((setattr, mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and inspect.isfunction(v):
                            self._undo.append((dict.__setitem__, value, k, v))
                            value[k] = wrappers[id(v)]
        dataset = getattr(sys.modules.get("satsvm.data"), "Dataset", None)
        subset = getattr(dataset, "__dict__", {}).get("subset")
        if inspect.isfunction(subset):
            self._undo.append((setattr, dataset, "subset", subset))
            dataset.subset = self._wrap(subset, ("data", "subset"))

    def uninstall(self) -> None:
        for restore, owner, name, original in reversed(self._undo):
            restore(owner, name, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def _live_iterations(alpha0: float, eta: float, max_iters: int) -> int:
    """Iterations whose learning rate is nonzero, per the public schedule."""
    try:
        from satsvm.trainer import learning_rate_sequence
    except ImportError:
        return 0
    return sum(1 for alpha in learning_rate_sequence(alpha0, eta, max_iters) if alpha != 0.0)


def _array_digest(X) -> str:
    import numpy as np

    X = np.ascontiguousarray(X, dtype=float)
    return hashlib.sha256(repr(X.shape).encode() + X.tobytes()).hexdigest()


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; call after uninstalling."""
    own = self_times(spans)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict = {}
    calls: dict = {}
    for (key, _, _, _, _), s in zip(spans, own):
        by_layer[key[0]] = by_layer.get(key[0], 0.0) + s
        by_name[key] = by_name.get(key, 0.0) + s
        calls[key] = calls.get(key, 0) + 1

    def t(layer, *names):
        return sum(by_name.get((layer, n), 0.0) for n in names)

    gram = [info for (key, _, _, _, info) in spans if key == ("kernel", "gram_matrix") and info is not None]
    gram_entries = sum(len(X) ** 2 for _, X in gram)
    distinct = {(repr(spec), _array_digest(X)) for spec, X in gram}

    fits = [info for (key, _, _, _, info) in spans if key == ("trainer", "fit") and info is not None]
    iters = sum(cfg.max_iters for cfg, _ in fits)
    kmatvec = sum(cfg.max_iters * len(X) ** 2 * 8 for cfg, X in fits)
    schedules: dict = {}
    for cfg, _ in fits:
        sched = (cfg.alpha0, cfg.eta, cfg.max_iters)
        if sched not in schedules:
            schedules[sched] = _live_iterations(*sched)
    live = sum(schedules[(cfg.alpha0, cfg.eta, cfg.max_iters)] for cfg, _ in fits)

    # rows evaluated by predict-family calls not made from inside another one
    rows = 0
    for key, _, _, parent, info in spans:
        if key[0] == "trainer" and key[1] in ("decision_values", "predict_batch") and info is not None:
            if parent < 0 or spans[parent][0][1] not in _PREDICT:
                rows += len(info)

    loads = [info for (key, _, _, _, info) in spans if key == ("data", "load_dataset") and info]
    load_mb = sum(os.path.getsize(p) for p in loads if os.path.exists(p)) / 1e6
    load_s = t("data", "load_dataset")
    fit_self = t("trainer", "fit")

    def io_bytes(name):
        return sum(info or 0 for (key, _, _, _, info) in spans if key == ("trainer", name))

    return {
        "cli.self_s": by_layer["cli"],
        "data.self_s": by_layer["data"],
        "data.load_s": load_s,
        "data.load_mb_per_s": load_mb / load_s if load_s > 0 else 0.0,
        "data.write_s": t("data", "write_csv"),
        "data.corrupt_s": t("data", *_CORRUPT),
        "data.prep_s": t("data", *_PREP),
        "kernel.self_s": by_layer["kernel"],
        "kernel.gram_s": t("kernel", "gram_matrix"),
        "kernel.gram_calls": len(gram),
        "kernel.gram_entries": gram_entries,
        "kernel.gram_distinct_ratio": len(distinct) / len(gram) if gram else 0.0,
        "kernel.vector_s": t("kernel", "kernel_vector"),
        "kernel.vector_calls": calls.get(("kernel", "kernel_vector"), 0),
        "loss.self_s": by_layer["loss"],
        "loss.derivative_s": t("loss", "loss_derivative"),
        "loss.derivative_calls": calls.get(("loss", "loss_derivative"), 0),
        "trainer.self_s": by_layer["trainer"],
        "trainer.fit_self_s": fit_self,
        "trainer.fit_calls": len(fits),
        "trainer.iters_configured": iters,
        "trainer.us_per_iter": 1e6 * fit_self / iters if iters else 0.0,
        "trainer.kmatvec_bytes": kmatvec,
        "trainer.live_iter_ratio": live / iters if iters else 0.0,
        "trainer.predict_self_s": t("trainer", *_PREDICT),
        "trainer.predict_rows": rows,
        "trainer.model_io_s.save": t("trainer", "save_model"),
        "trainer.model_io_s.load": t("trainer", "load_model"),
        "trainer.model_bytes.save": io_bytes("save_model"),
        "trainer.model_bytes.load": io_bytes("load_model"),
        "harness.self_s": by_layer["harness"],
        "harness.cv_calls": calls.get(("harness", "cross_validate"), 0),
        "stats.self_s": by_layer["stats"],
        "theory.self_s": by_layer["theory"],
        "trace.accounted_s": sum(own),
        "trace.spans": len(spans),
    }
