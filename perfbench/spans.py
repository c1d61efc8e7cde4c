"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps each layer's public functions at the place their
caller looks them up (``repro.core.pipeline.greedy_fill``, not
``repro.rounding.repair.greedy_fill``) and records one span per call:
name, start, end, parent span and request id.  Spans stay in memory and
are written out when the run ends.  The program itself is untouched:
the wrappers exist only between :meth:`Recorder.install` and
:meth:`Recorder.uninstall`, and an untraced run never imports this
module's wrappers.

A call is recorded only inside a request: the benchmark marks in-process
requests with :meth:`Recorder.request`, and in the service the request
id is the ``tag`` the client puts on every solve request.  Set-up,
priming solves and the correctness gate therefore leave no spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional

import numpy as np


def _tag_of_request(args: tuple, kwargs: dict) -> Optional[str]:
    """Request id of ``AllocationSession.solve(self, request)``."""
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "tag", None)


def _tag_of_message(args: tuple, kwargs: dict) -> Optional[str]:
    """Request id of ``AllocationService.handle_message(self, msg)``."""
    msg = args[1] if len(args) > 1 else kwargs.get("msg")
    if not isinstance(msg, dict) or msg.get("op") != "solve":
        return None
    request = msg.get("request")
    return request.get("tag") if isinstance(request, dict) else None


def _repair_added(span: "Span", args: tuple, result: Any) -> None:
    """Edges ``greedy_fill(graph, caps, edge_mask)`` added to the mask."""
    span.attrs["added"] = int(np.count_nonzero(result)) - int(np.count_nonzero(args[2]))


def _snapshot_bytes(span: "Span", args: tuple, result: Any) -> None:
    span.attrs["bytes"] = os.path.getsize(result)


# (owner, attribute, layer metric the span's self time feeds, observer).
# An owner "module:Class" wraps the class attribute, so every instance
# sees the wrapper; an owner "module" wraps the module global its
# callers resolve at call time.
TARGETS: tuple = (
    ("repro.graphs.io", "instance_from_json", "graphs.io.decode_ms", None),
    ("repro.core.pipeline:FractionalStage", "run", "core.fractional_ms", None),
    ("repro.core.sampled:FastSampler", "sample_positions", "core.sample_ms", None),
    ("repro.core.proportional", "proportional_round", "kernels.round_ms", None),
    ("repro.core.pipeline", "round_best_of", "rounding.round_ms", None),
    ("repro.core.pipeline", "greedy_fill", "rounding.repair_ms", _repair_added),
    ("repro.core.pipeline", "boost_allocation", "boosting.boost_ms", None),
    ("repro.boosting.boost", "build_layered_graph", "boosting.layered_build_ms", None),
    ("repro.rounding.repair", "validate_integral_allocation", "graphs.validate_ms", None),
    ("repro.serve.session", "validate_integral_allocation", "graphs.validate_ms", None),
    ("repro.api.report:AllocationReport", "from_pipeline", "api.report_ms", None),
    ("repro.api.report:AllocationReport", "to_json", "api.report_ms", None),
    ("repro.api.report:AllocationReport", "payload", "api.report_ms", None),
    ("repro.dynamic.session", "apply_delta", "dynamic.apply_ms", None),
    ("repro.dynamic.session", "transplant_workspace", "kernels.transplant_ms", None),
    ("repro.dynamic.session", "remap_exponents", "dynamic.remap_ms", None),
    ("repro.serve.session:AllocationSession", "solve", "serve.solve_ms", None),
    ("repro.serve.service", "snapshot_session", "serve.snapshot_save_ms", None),
    ("repro.serve.snapshot:SnapshotStore", "save", "serve.snapshot_save_ms", _snapshot_bytes),
    # The handler's self time is what it spends neither solving, nor
    # checkpointing, nor building the report: waiting for the single
    # solver thread.
    ("repro.serve.service:AllocationService", "handle_message", "serve.queue_wait_ms", None),
)

# Where a request's root span can come from when no request is marked
# in the calling context: the service's event loop and solver thread.
ROOT_REQUEST_IDS: dict[tuple[str, str], Callable] = {
    ("repro.serve.service:AllocationService", "handle_message"): _tag_of_message,
    ("repro.serve.session:AllocationSession", "solve"): _tag_of_request,
}

# Count-only probe: a layered build "augmented" when the path search
# that follows it found at least one path.  Credited to the enclosing
# boost span; the probe records no span of its own.
PROBES: tuple = (
    ("repro.boosting.boost", "find_layered_augmenting_paths", "augmented"),
)

WRAPPED = "__perfbench_wrapped__"


class Span:
    """One recorded call into a layer."""

    __slots__ = ("sid", "parent", "name", "layer", "rid", "t0", "t1", "attrs")

    def __init__(self, sid, parent, name, layer, rid):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.rid = rid
        self.t0 = 0
        self.t1 = 0
        self.attrs: dict[str, int] = {}

    def as_dict(self) -> dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        span = cls(d["sid"], d["parent"], d["name"], d["layer"], d["rid"])
        span.t0, span.t1, span.attrs = d["t0"], d["t1"], dict(d["attrs"])
        return span


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _raw(obj, attr: str):
    """The attribute as stored: a class's ``__dict__`` entry keeps
    ``classmethod``/``property`` objects intact."""
    return obj.__dict__[attr] if inspect.isclass(obj) else getattr(obj, attr)


def _is_wrapped(raw) -> bool:
    inner = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
    return getattr(inner, WRAPPED, False)


class Recorder:
    """Collects spans for the traced run; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        # (enclosing span or None, request id) of the running call.
        self._ctx: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        # Open root span per request id: the parent of a span that
        # starts on another thread (the service's solver thread).
        self._roots: dict[str, Span] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- marking requests ------------------------------------------------
    @contextmanager
    def request(self, rid: str):
        """Attribute the calls made inside the block to request ``rid``."""
        token = self._ctx.set((None, rid))
        try:
            yield
        finally:
            self._ctx.reset(token)

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str, args, kwargs, rid_of):
        cur = self._ctx.get()
        if cur is None:
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None:
                return None
            parent = self._roots.get(rid)
        else:
            parent, rid = cur
        span = Span(next(self._ids), parent.sid if parent else None, name, layer, rid)
        token = self._ctx.set((span, rid))
        if parent is None:
            self._roots[rid] = span
        span.t0 = time.perf_counter_ns()
        return span, token

    def _close(self, opened) -> None:
        span, token = opened
        span.t1 = time.perf_counter_ns()
        self._ctx.reset(token)
        if span.parent is None:
            self._roots.pop(span.rid, None)
        self.spans.append(span)

    def _wrap(self, fn, name, layer, observe, rid_of):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                opened = self._open(name, layer, args, kwargs, rid_of)
                if opened is None:
                    return await fn(*args, **kwargs)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(opened)

            setattr(async_wrapper, WRAPPED, True)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open(name, layer, args, kwargs, rid_of)
            if opened is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened)
            if observe is not None:
                observe(opened[0], args, result)
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _probe(self, fn, counter: str):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            cur = self._ctx.get()
            if cur is not None and cur[0] is not None and result:
                attrs = cur[0].attrs
                attrs[counter] = attrs.get(counter, 0) + 1
            return result

        setattr(probe, WRAPPED, True)
        return probe

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        """Replace every target with its recording wrapper."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for owner, attr, layer, observe in TARGETS:
                obj = _resolve(owner)
                raw = _raw(obj, attr)
                name = f"{owner.replace(':', '.')}.{attr}"
                rid_of = ROOT_REQUEST_IDS.get((owner, attr))
                if isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name, layer, observe, rid_of))
                elif isinstance(raw, classmethod):
                    new = classmethod(
                        self._wrap(raw.__func__, name, layer, observe, rid_of)
                    )
                else:
                    new = self._wrap(raw, name, layer, observe, rid_of)
                self._saved.append((obj, attr, raw))
                setattr(obj, attr, new)
            for owner, attr, counter in PROBES:
                obj = _resolve(owner)
                raw = _raw(obj, attr)
                self._saved.append((obj, attr, raw))
                setattr(obj, attr, self._probe(raw, counter))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, last installed first."""
        while self._saved:
            obj, attr, raw = self._saved.pop()
            setattr(obj, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write the spans as one JSON file (read back by :func:`load_spans`)."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": [s.as_dict() for s in self.spans]}, f)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as f:
        return [Span.from_dict(d) for d in json.load(f)["spans"]]


def leftover_wrappers() -> list[str]:
    """Targets that still hold a recording wrapper (should be none)."""
    left = []
    for owner, attr, *_ in TARGETS + PROBES:
        if _is_wrapped(_raw(_resolve(owner), attr)):
            left.append(f"{owner}.{attr}")
    return left


# -- aggregation ---------------------------------------------------------

TIME_LAYERS = (
    "graphs.io.decode_ms",
    "core.fractional_ms",
    "core.sample_ms",
    "kernels.round_ms",
    "rounding.round_ms",
    "rounding.repair_ms",
    "boosting.boost_ms",
    "boosting.layered_build_ms",
    "graphs.validate_ms",
    "api.report_ms",
    "dynamic.apply_ms",
    "kernels.transplant_ms",
    "dynamic.remap_ms",
    "serve.solve_ms",
    "serve.snapshot_save_ms",
    "serve.queue_wait_ms",
)


def per_request(spans: Iterable[Span], latency_ms: dict[str, float]) -> dict[str, dict]:
    """Per request id: self time per layer (ms), counts, and the time
    no top-level span covers.

    A span's self time is its duration minus the durations of its
    direct children, so nested layers are never counted twice.
    """
    spans = [s for s in spans if s.rid in latency_ms]
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.t1 - s.t0
    rows: dict[str, dict] = {
        rid: {
            "ms": dict.fromkeys(TIME_LAYERS, 0.0),
            "rounds": 0,
            "builds": 0,
            "augmented": 0,
            "repair_added": None,
            "snapshot_bytes": 0,
            "handler_ms": 0.0,
            "top_ms": 0.0,
        }
        for rid in latency_ms
    }
    for s in spans:
        row = rows[s.rid]
        dur = s.t1 - s.t0
        row["ms"][s.layer] += (dur - child_ns[s.sid]) / 1e6
        if s.parent is None:
            row["top_ms"] += dur / 1e6
        if s.layer == "kernels.round_ms":
            row["rounds"] += 1
        elif s.layer == "boosting.layered_build_ms":
            row["builds"] += 1
        elif s.layer == "serve.queue_wait_ms":
            row["handler_ms"] += dur / 1e6
        row["augmented"] += s.attrs.get("augmented", 0)
        row["snapshot_bytes"] += s.attrs.get("bytes", 0)
        if "added" in s.attrs:
            row["repair_added"] = (row["repair_added"] or 0) + s.attrs["added"]
    return rows


def layer_metrics(
    rows: dict[str, dict], latency_ms: dict[str, float], final_size: dict[str, int]
) -> dict[str, float]:
    """Medians over requests of the per-request layer figures."""

    def med(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    out = {name: med(r["ms"][name] for r in rows.values()) for name in TIME_LAYERS}
    out["core.rounds"] = med(r["rounds"] for r in rows.values())
    out["boosting.layered_builds"] = med(r["builds"] for r in rows.values())
    out["boosting.useful_ratio"] = med(
        r["augmented"] / r["builds"] for r in rows.values() if r["builds"]
    )
    out["rounding.repair_added_share"] = med(
        r["repair_added"] / final_size[rid]
        for rid, r in rows.items()
        if r["repair_added"] is not None and final_size[rid]
    )
    out["serve.snapshot_bytes"] = med(r["snapshot_bytes"] for r in rows.values())
    out["serve.handler_ms"] = med(r["handler_ms"] for r in rows.values())
    out["serve.transport_ms"] = med(
        latency_ms[rid] - r["handler_ms"] for rid, r in rows.items() if r["handler_ms"]
    )
    out["trace.unattributed_ms"] = med(
        latency_ms[rid] - r["top_ms"] for rid, r in rows.items()
    )
    return out
