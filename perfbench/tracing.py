"""In-memory span tracer for the benchmark's traced runs.

A span is one call across a layer boundary: its name, its parent span,
and its start and end times.  Spans live in four flat arrays while the
operation runs and are reduced (or written out) only when it has ended,
so recording one costs a few appends.

:func:`instrument` records spans from the benchmark's own code: inside
the operation's process, before anything is built, it replaces the public
entry points of each layer on their classes with timing wrappers, and
makes ``Engine.schedule_at`` hand the engine a callback that runs the
scheduled function inside a span named for the layer that owns it.  The
program looks each of these up at call time, so no program file changes.

A span's *self time* is its duration minus the durations of its direct
children; summed over a tree the self times give back the root's duration,
which is how the traced run shows that every second of the event loop was
attributed to some layer.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np


class SpanTracer:
    """Records nested spans into flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def call(self, nid: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span."""
        idx = self.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return self.call(self.name_id(name), fn, *args, **kwargs)

    def arrays(self) -> Dict[str, Any]:
        """The recorded spans as numpy arrays; ``name_id`` indexes ``names``."""
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(parent: Any, start: Any, end: Any) -> Any:
    """Each span's duration minus the durations of its direct children."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child


def root_of(parent: Any) -> Any:
    """Index of each span's outermost ancestor (itself for a root).

    Parents are always recorded before their children, so one forward
    pass resolves every chain.
    """
    parent = np.asarray(parent, dtype=np.int64)
    root = np.arange(parent.size, dtype=np.int64)
    for i in np.nonzero(parent >= 0)[0].tolist():
        root[i] = root[parent[i]]
    return root


def summarize(tracer: SpanTracer) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Per-name ``count``/``total_s``/``self_s``, and per-root-name subtree self sums.

    The second mapping gives, for each name that occurs as a root span,
    the self time summed over every span under such roots (themselves
    included): the part of the roots' duration the tree accounts for.
    """
    data = tracer.arrays()
    names = list(tracer.names)
    nids = data["name_id"]
    dur = data["end"] - data["start"]
    own = self_times(data["parent"], data["start"], data["end"])
    per_name: Dict[str, Dict[str, float]] = {}
    counts = np.bincount(nids, minlength=len(names))
    totals = np.bincount(nids, weights=dur, minlength=len(names))
    selfs = np.bincount(nids, weights=own, minlength=len(names))
    for nid, name in enumerate(names):
        per_name[name] = {
            "count": int(counts[nid]),
            "total_s": float(totals[nid]),
            "self_s": float(selfs[nid]),
        }
    roots = root_of(data["parent"])
    root_names = nids[roots]
    subtree = np.bincount(root_names, weights=own, minlength=len(names))
    by_root = {names[nid]: float(subtree[nid]) for nid in np.unique(root_names).tolist()}
    return per_name, by_root


# ----------------------------------------------------------------------
# Layer attribution
# ----------------------------------------------------------------------
#: Module prefix → layer, first match wins.
LAYER_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.medium", "medium"),
    ("repro.phy.", "medium"),
    ("repro.link.", "mac"),
    ("repro.core.", "estimator"),
    ("repro.net.ctp.routing", "routing"),
    ("repro.net.ctp.trickle", "routing"),
    ("repro.net.ctp.forwarding", "forwarding"),
    ("repro.net.ctp", "ctp"),
    ("repro.workloads.", "workload"),
    ("repro.sim.network", "workload"),
    ("repro.estimators.", "workload"),
)


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_MODULES:
        if module.startswith(prefix):
            return layer
    return "other"


def event_span_name(fn: Callable[..., Any]) -> str:
    """Span name for an engine event whose callback is ``fn``."""
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else getattr(fn, "__module__", "")
    layer = layer_of(module or "")
    if layer == "medium" and getattr(fn, "__name__", "") == "_end_transmission":
        return "medium.rx"
    return f"{layer}.event"


class Instrumentation:
    """Class-level wrappers installed for one traced operation."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Every component built while instrumented, by kind (for its counters).
        self.registry: Dict[str, List[Any]] = {}

    def wrap_method(self, target: Any, attr: str, span: str) -> None:
        """Replace ``target.attr`` (a class or module attribute) with a span wrapper."""
        orig = target.__dict__[attr]
        nid = self.tracer.name_id(span)
        call = self.tracer.call

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(nid, orig, *args, **kwargs)

        self._set(target, attr, wrapper)

    def register_instances(self, cls: type, key: str) -> None:
        """Keep every instance of ``cls`` built from now on (for its counters)."""
        orig = cls.__dict__["__init__"]
        bucket = self.registry.setdefault(key, [])

        @functools.wraps(orig)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            orig(obj, *args, **kwargs)
            bucket.append(obj)

        self._set(cls, "__init__", init)

    def trace_engine(self, engine_cls: type) -> None:
        """Run each scheduled callback inside a span named for the layer that
        owns it, and time ``run_until`` as the root of the event loop."""
        orig = engine_cls.__dict__["schedule_at"]
        tracer = self.tracer
        call = tracer.call
        name_id = tracer.name_id
        cache: Dict[Tuple[Any, str], int] = {}

        def schedule_at(engine: Any, time: float, fn: Callable[..., Any], *args: Any) -> Any:
            owner = getattr(fn, "__self__", None)
            key = (type(owner) if owner is not None else getattr(fn, "__code__", fn),
                   getattr(fn, "__name__", ""))
            nid = cache.get(key)
            if nid is None:
                nid = cache[key] = name_id(event_span_name(fn))
            return orig(engine, time, call, nid, fn, *args)

        self._set(engine_cls, "schedule_at", schedule_at)
        self.wrap_method(engine_cls, "run_until", "engine.run")

    def _set(self, target: Any, attr: str, value: Any) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def undo(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)


def instrument(tracer: SpanTracer) -> Instrumentation:
    """Wrap each layer's public entry points; returns the handle to undo it."""
    import repro.estimators.objectives as objectives
    from repro.campaign.queue import Campaign
    from repro.campaign.sweep import SweepSpec
    from repro.core.estimator import HybridLinkEstimator
    from repro.link.mac import Mac
    from repro.net.ctp.forwarding import CtpForwardingEngine
    from repro.net.ctp.protocol import CtpProtocol
    from repro.net.ctp.routing import CtpRoutingEngine
    from repro.obs.stream import JsonlStreamSink
    from repro.runner.cache import ResultCache
    from repro.sim.engine import Engine
    from repro.sim.medium import RadioMedium
    from repro.sim.medium_fast import FastRadioMedium
    from repro.workloads.collection import CollectionSource

    inst = Instrumentation(tracer)
    inst.trace_engine(Engine)
    for cls in (RadioMedium, FastRadioMedium):
        for attr, span in (
            ("start_transmission", "medium.tx"),
            ("channel_clear", "medium.cca"),
            ("finalize", "medium.finalize"),
        ):
            if attr in cls.__dict__:
                inst.wrap_method(cls, attr, span)
    inst.wrap_method(Mac, "on_frame_received", "mac.rx")
    inst.wrap_method(Mac, "send", "mac.send")
    # The estimator installs these two as the MAC's on_receive/on_send_done
    # callbacks when it is built, so wrapping them first wraps the callbacks.
    inst.wrap_method(HybridLinkEstimator, "_mac_receive", "estimator.rx")
    inst.wrap_method(HybridLinkEstimator, "_mac_send_done", "estimator.send_done")
    inst.wrap_method(HybridLinkEstimator, "send", "estimator.send")
    inst.wrap_method(CtpProtocol, "on_receive", "ctp.rx")
    inst.wrap_method(CtpProtocol, "on_send_done", "forwarding.send_done")
    inst.wrap_method(CtpRoutingEngine, "on_beacon_received", "routing.beacon_rx")
    inst.wrap_method(CtpRoutingEngine, "update_route", "routing.update_route")
    inst.wrap_method(CtpForwardingEngine, "on_data_received", "forwarding.data_rx")
    inst.wrap_method(ResultCache, "get", "runner.cache_get")
    inst.wrap_method(ResultCache, "put", "runner.cache_put")
    inst.wrap_method(JsonlStreamSink, "emit", "obs.emit")
    inst.wrap_method(SweepSpec, "grid_points", "campaign.enumerate")
    inst.wrap_method(Campaign, "run", "campaign.run")
    # ``simulate`` resolves this module attribute on every accuracy point.
    inst.wrap_method(objectives, "accuracy_summary", "simulate")
    for cls, key in (
        (Mac, "mac"),
        (HybridLinkEstimator, "estimator"),
        (CtpRoutingEngine, "routing"),
        (CtpForwardingEngine, "forwarding"),
        (CollectionSource, "source"),
    ):
        inst.register_instances(cls, key)
    return inst
