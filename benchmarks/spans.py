"""Span tracing of chanchart's public functions, installed from outside the package.

A traced round wraps every public function of the traced modules where it is
looked up: in its own module, and in every other ``chanchart`` module (or the
package itself) that imported it by value, such as ``encoder.isomap`` or
``trainer.adam_step``.  Modules are reached through ``sys.modules`` because
the package re-exports the function ``isomap`` under the module's name.

Each call records a span (name, start, end, parent span, round id) plus
counts taken from its arguments and result.  Spans stay in memory until the
benchmark writes them out; ``layer_metrics`` turns one round's spans into
the per-layer metrics.  Untraced rounds run with no wrapper installed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("config", "synthgen", "metricspace", "isomap", "encoder", "triplet",
                  "trainer", "evalmetrics", "fileio", "cli")
# Methods of config.ExperimentConfig that resolve a configuration.
CONFIG_METHODS = ("from_dict", "from_file", "with_seed_root")


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: int
    counts: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "run": self.run,
                "counts": self.counts}


# ---------------------------------------------------------------------------
# counts taken at each boundary: hook(args, result) -> dict


def _hybrid_gemm_flop(p, n: int, backward: bool) -> int:
    # forward: four (n x m) @ (m x n_init) products for a_re/a_im, then d @ z^T;
    # backward: four (m x n) @ (n x n_init) products for gd_re/gd_im, then
    # gz^T @ d and gz @ z
    flop = 8 * n * p.m * p.n_init + 2 * n * p.n_init * p.d_out
    return flop + 2 * n * p.n_init * p.d_out if backward else flop


def _mlp_gemm_flop(p, n: int, backward: bool) -> int:
    # forward: one product per layer; backward: weight gradient and input
    # gradient per layer (the layer-0 input gradient is computed too)
    flop = sum(2 * n * w.shape[0] * w.shape[1] for w in p.weights)
    return 2 * flop if backward else flop


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


HOOKS = {
    "synthgen.synthesize_channels": lambda a, r: {"rows": int(r.channels.shape[0])},
    "metricspace.distance_matrix": lambda a, r: {"pairs": r.shape[0] * (r.shape[0] - 1) // 2},
    "isomap.knn_graph": lambda a, r: {"n": r.n,
                                       "edges": sum(len(x) for x in r.adjacency) // 2},
    "encoder.forward_batch": lambda a, r: {
        "rows": int(a[1].shape[0]), "degenerate": int(np.sum(~r[1].ok)),
        "gemm_flop": _hybrid_gemm_flop(a[0], a[1].shape[0], False)},
    "encoder.backward_batch": lambda a, r: {
        "gemm_flop": _hybrid_gemm_flop(a[0], a[2].shape[0], True)},
    "encoder.mlp_forward_batch": lambda a, r: {
        "rows": int(a[1].shape[0]), "degenerate": int(np.sum(~r[2])),
        "gemm_flop": _mlp_gemm_flop(a[0], a[1].shape[0], False)},
    "encoder.mlp_backward_batch": lambda a, r: {
        "gemm_flop": _mlp_gemm_flop(a[0], a[2].shape[0], True)},
    "triplet.mine_triplets": lambda a, r: {"mined": len(r)},
    "triplet.triplet_loss_grad_batch": lambda a, r: {
        "processed": int(r[0].size), "active": int(np.sum(r[0] > 0.0))},
    "trainer.adam_step": lambda a, r: {"params": int(sum(p.size for p in a[1]))},
    "trainer.train": lambda a, r: {"skipped": int(r.skipped)},
    "evalmetrics.evaluate": lambda a, r: {"n_eval": int(r.n_eval)},
    "fileio.write_dataset": _file_bytes,
    "fileio.write_model": _file_bytes,
    "fileio.write_text": _file_bytes,
    "fileio.read_dataset": _file_bytes,
    "fileio.read_model": _file_bytes,
}
# Spans that also record the tracemalloc peak of their call, in bytes.
MEMORY_SPANS = frozenset({"evalmetrics.evaluate"})


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        memory = name in MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, name, time.perf_counter(), 0.0, tracer.run)
            tracer.spans.append(span)
            tracer._stack.append(span)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                tracer._stack.pop()
            counts = hook(args, result) if hook else {}
            if memory:
                counts["peak_bytes"] = peak
            span.counts = counts or None
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of TRACED_MODULES wherever it is bound."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"chanchart.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chanchart" or mod_name.startswith("chanchart.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        cls = sys.modules["chanchart.config"].ExperimentConfig
        for attr in CONFIG_METHODS:
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(f"config.{attr}", fn)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def round(self, run: int):
        """Wrappers installed for the duration of one traced round."""
        self.run = run
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# deriving per-layer metrics from spans


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval its children cover."""
    covered, reach = 0.0, span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.dur - covered


class SpanIndex:
    """One round's spans, indexed by name and parent."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        return [s for n in names for s in self.by_name.get(n, [])]

    def outermost(self, *names: str) -> list[Span]:
        """Spans with one of the names that are not nested in another such span."""
        wanted = set(names)
        out = []
        for s in self.named(*names):
            p = s.parent
            while p is not None and self.by_id[p].name not in wanted:
                p = self.by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def total(self, *names: str) -> float:
        return sum(s.dur for s in self.outermost(*names))

    def self_total(self, *names: str) -> float:
        return sum(self_time(s, self.children.get(s.id, [])) for s in self.outermost(*names))

    def count(self, key: str, *names: str, reduce=sum):
        return reduce([s.counts[key] for s in self.named(*names) if s.counts and key in s.counts]
                      or [0])

    def top_level(self, lo: float, hi: float) -> float:
        """Time covered by parentless spans inside [lo, hi]."""
        return sum(s.dur for s in self.spans
                   if s.parent is None and s.start >= lo and s.end <= hi)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(ix: SpanIndex) -> dict:
    """Per-layer metrics of one traced round's spans, keyed by metric name."""
    fwd = ("encoder.forward_batch", "encoder.mlp_forward_batch")
    bwd = ("encoder.backward_batch", "encoder.mlp_backward_batch")
    out = {}

    out["synthgen.synthesize_s"] = ix.total("synthgen.generate_trajectory",
                                            "synthgen.synthesize_channels")
    out["synthgen.rows"] = ix.count("rows", "synthgen.synthesize_channels")
    out["synthgen.rows_per_s"] = _ratio(out["synthgen.rows"], out["synthgen.synthesize_s"])

    out["metricspace.distance_matrix_s"] = ix.total("metricspace.distance_matrix")
    out["metricspace.pairs"] = ix.count("pairs", "metricspace.distance_matrix")

    out["isomap.knn_graph_s"] = ix.total("isomap.knn_graph")
    out["isomap.geodesics_s"] = ix.total("isomap.geodesic_distances")
    out["isomap.mds_s"] = ix.total("isomap.classical_mds")
    out["isomap.eigensolver_s"] = ix.total("isomap.jacobi_eigh")
    out["isomap.n"] = ix.count("n", "isomap.knn_graph", reduce=max)
    out["isomap.edges"] = ix.count("edges", "isomap.knn_graph")

    out["encoder.init_s"] = ix.total("encoder.init_smart", "encoder.init_random",
                                     "encoder.mlp_init")
    out["encoder.forward_s"] = ix.total(*fwd)
    out["encoder.backward_s"] = ix.total(*bwd)
    out["encoder.chart_s"] = ix.total("encoder.chart_batch")
    out["encoder.rows"] = ix.count("rows", *fwd)
    out["encoder.degenerate_rows"] = ix.count("degenerate", *fwd)
    flop = ix.count("gemm_flop", *fwd, *bwd)
    out["encoder.gemm_gflop"] = flop / 1e9
    out["encoder.gemm_gflops"] = _ratio(flop / 1e9, out["encoder.forward_s"]
                                        + out["encoder.backward_s"])

    out["triplet.mine_s"] = ix.total("triplet.mine_triplets")
    out["triplet.mined"] = ix.count("mined", "triplet.mine_triplets")
    out["triplet.loss_grad_s"] = ix.total("triplet.triplet_loss_grad_batch")
    out["triplet.active_frac"] = _ratio(ix.count("active", "triplet.triplet_loss_grad_batch"),
                                        ix.count("processed", "triplet.triplet_loss_grad_batch"))

    out["trainer.train_s"] = ix.total("trainer.train")
    out["trainer.self_s"] = ix.self_total("trainer.train")
    adam = ix.named("trainer.adam_step")
    out["trainer.steps"] = len(adam)
    step_ms = []
    for train in ix.named("trainer.train"):
        ends = sorted(s.end for s in ix.children.get(train.id, [])
                      if s.name == "trainer.adam_step")
        step_ms.extend(1e3 * np.diff(ends))
    p50, p90 = np.percentile(step_ms, [50, 90]) if step_ms else (0.0, 0.0)
    out["trainer.step_ms_p50"] = float(p50)
    out["trainer.step_ms_p90"] = float(p90)
    out["trainer.adam_s"] = ix.total("trainer.adam_step")
    # Adam reads g, m, v, p and writes m, v, p: seven float64 passes per parameter.
    out["trainer.adam_gbytes"] = 7 * 8 * ix.count("params", "trainer.adam_step") / 1e9
    out["trainer.adam_GBps"] = _ratio(out["trainer.adam_gbytes"], out["trainer.adam_s"])
    out["trainer.skipped"] = ix.count("skipped", "trainer.train")

    out["evalmetrics.evaluate_s"] = ix.total("evalmetrics.evaluate")
    out["evalmetrics.rank_s"] = ix.total("evalmetrics.rank_matrix")
    out["evalmetrics.self_s"] = ix.self_total("evalmetrics.evaluate")
    out["evalmetrics.n_eval"] = ix.count("n_eval", "evalmetrics.evaluate", reduce=max)
    out["evalmetrics.peak_mb"] = ix.count("peak_bytes", "evalmetrics.evaluate",
                                          reduce=max) / 2**20

    writes = ("fileio.write_dataset", "fileio.write_model", "fileio.write_text")
    reads = ("fileio.read_dataset", "fileio.read_model")
    out["fileio.write_s"] = ix.total(*writes)
    out["fileio.read_s"] = ix.total(*reads)
    out["fileio.bytes_written"] = ix.count("bytes", *writes)
    out["fileio.bytes_read"] = ix.count("bytes", *reads)

    out["config.resolve_s"] = ix.total("config.preset", "config.derive_seeds",
                                       *(f"config.{m}" for m in CONFIG_METHODS))
    return out
