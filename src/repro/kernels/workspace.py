"""Cached per-graph invariants for the round kernels.

The historical hot loops re-derived the same arrays every round:
``np.repeat(seg_max, degrees)`` rebuilt the slot-owner expansion from
scratch, ``reduceat`` offsets were recomputed per call, and every
temporary was freshly allocated.  All of those are *per-graph*
invariants — a graph's CSR structure never changes — so they belong in
a cache keyed by the graph, built once and reused by every round, every
run, and (via :func:`workspace_for`) every instance sharing the graph.

Two layers:

* :class:`SegmentLayout` — one CSR side (an ``indptr``): lazily caches
  ``degrees``, the ``slot_owner`` gather index (slot → row, the exact
  inverse of ``np.repeat(per_row, degrees)``), the non-empty-row mask
  and ``reduceat`` start offsets.
* :class:`RoundWorkspace` — both sides of a bipartite graph plus the
  edge arrays the round kernel gathers/scatters through, and the
  preallocated per-row float buffer the optimized backend casts β
  exponents into each round.

See DESIGN.md §6.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # avoid a runtime cycle: graphs.bipartite imports kernels
    from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "SegmentLayout",
    "RoundWorkspace",
    "workspace_for",
    "resolve_workspace",
    "transplant_workspace",
]

_WORKSPACE_ATTR = "_round_workspace"


class SegmentLayout:
    """Lazily cached invariants and scratch buffers for one CSR side."""

    __slots__ = (
        "indptr",
        "n_rows",
        "n_slots",
        "_degrees",
        "_slot_owner",
        "_nonempty",
        "_reduce_starts",
    )

    def __init__(self, indptr: np.ndarray):
        indptr = np.asarray(indptr)
        self.indptr = indptr
        self.n_rows = int(indptr.shape[0] - 1)
        self.n_slots = int(indptr[-1]) if indptr.shape[0] else 0
        self._degrees: Optional[np.ndarray] = None
        self._slot_owner: Optional[np.ndarray] = None
        self._nonempty: Optional[np.ndarray] = None
        self._reduce_starts: Optional[np.ndarray] = None

    # -- structural invariants -----------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            deg = np.diff(self.indptr)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    @property
    def slot_owner(self) -> np.ndarray:
        """Row id of every slot — ``per_row[slot_owner]`` equals
        ``np.repeat(per_row, degrees)`` without the per-call repeat."""
        if self._slot_owner is None:
            owner = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), self.degrees
            )
            owner.setflags(write=False)
            self._slot_owner = owner
        return self._slot_owner

    @property
    def nonempty(self) -> np.ndarray:
        """Boolean mask of rows with at least one slot."""
        if self._nonempty is None:
            mask = self.indptr[:-1] < self.indptr[1:]
            mask.setflags(write=False)
            self._nonempty = mask
        return self._nonempty

    @property
    def reduce_starts(self) -> np.ndarray:
        """``reduceat`` offsets: row starts restricted to non-empty rows."""
        if self._reduce_starts is None:
            starts = np.ascontiguousarray(self.indptr[:-1][self.nonempty])
            starts.setflags(write=False)
            self._reduce_starts = starts
        return self._reduce_starts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentLayout(n_rows={self.n_rows}, n_slots={self.n_slots})"


class RoundWorkspace:
    """Everything the round kernel needs about one graph, cached.

    Holds both :class:`SegmentLayout` sides (shared with the graph's
    own cached layouts, so segment helpers and the round kernel reuse
    one set of invariants) and references to the frozen edge arrays.
    Obtain through :func:`workspace_for`, which caches one workspace
    per graph — reusing it across rounds, runs and instances is what
    removes the per-round re-expansion cost.  Ownership is one-way: the
    graph holds its workspace and the workspace holds nothing back, so
    a per-request graph dies by reference count, not by the cyclic
    collector (DESIGN.md §6.4).
    """

    __slots__ = (
        "left",
        "right",
        "left_adj",
        "right_adj",
        "edge_u",
        "edge_v",
        "n_left",
        "n_right",
        "n_edges",
        "_scratch",
    )

    def __init__(self, graph: "BipartiteGraph"):
        self.left = graph.left_layout
        self.right = graph.right_layout
        self.left_adj = graph.left_adj
        self.right_adj = graph.right_adj
        self.edge_u = graph.edge_u
        self.edge_v = graph.edge_v
        self.n_left = graph.n_left
        self.n_right = graph.n_right
        self.n_edges = graph.n_edges
        self._scratch = threading.local()

    @property
    def beta_f64(self) -> np.ndarray:
        """Preallocated per-right-vertex float64 buffer: the optimized
        backend casts integer β exponents into it every round instead
        of allocating a fresh cast per gather.  Thread-local, so a
        workspace captured on one thread and used on others (runs built
        up front, stepped in a pool) never races on scratch state."""
        buf = getattr(self._scratch, "beta_f64", None)
        if buf is None:
            buf = np.empty(self.n_right, dtype=np.float64)
            self._scratch.beta_f64 = buf
        return buf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundWorkspace(n_left={self.n_left}, n_right={self.n_right}, "
            f"m={self.n_edges})"
        )


def workspace_for(graph: "BipartiteGraph") -> RoundWorkspace:
    """The cached :class:`RoundWorkspace` of ``graph`` (built on first
    use; everything sharing a graph object shares the workspace).

    Safe to share across threads: structural invariants are immutable
    once built, and the scratch buffers are thread-local inside the
    workspace, so concurrent solves on one graph never race — however
    the runs were constructed.
    """
    ws = graph.__dict__.get(_WORKSPACE_ATTR)
    if ws is None:
        ws = RoundWorkspace(graph)
        # The dataclass is frozen; writing through __dict__ mirrors how
        # functools.cached_property caches on frozen dataclasses.
        graph.__dict__[_WORKSPACE_ATTR] = ws
    return ws


def transplant_workspace(
    new_graph: "BipartiteGraph", parent: RoundWorkspace
) -> RoundWorkspace:
    """Build ``new_graph``'s workspace incrementally from a parent's.

    The dynamic-instance path (DESIGN.md §9): applying a structural
    delta produces a *new* graph object, but deltas rarely disturb both
    CSR sides — a rewiring that preserves degrees, or a capacity drain
    that only touches one side's rows, leaves an ``indptr`` unchanged.
    A :class:`SegmentLayout` is a pure function of its ``indptr``, so
    any side whose ``indptr`` matches the parent's adopts the parent's
    layout object wholesale, carrying over every lazily materialized
    invariant (``degrees``, ``slot_owner``, ``reduceat`` offsets)
    instead of recomputing them on the new graph's first solve.

    Capacity-only deltas never reach this function: they reuse the
    graph object itself, so :func:`workspace_for` already returns the
    resident workspace.  Sides that did change are rebuilt lazily as
    usual.  The result is installed as ``new_graph``'s cached
    workspace, exactly as if :func:`workspace_for` had built it.
    """
    existing = new_graph.__dict__.get(_WORKSPACE_ATTR)
    if existing is not None:
        return existing

    def adopt(side: str, indptr_field: str, layout: SegmentLayout) -> None:
        # Seed the graph's cached_property slot before RoundWorkspace
        # reads it, so workspace and graph share one layout per side.
        # The graph's indptr field is replaced by the layout's own
        # (equal, read-only) array: the optimized backend trusts a
        # layout only when `layout.indptr is indptr` holds for the
        # indptr it was called with, so an equal-but-distinct array
        # would silently demote every segment call to the slow path.
        if side in new_graph.__dict__:
            return
        if np.array_equal(layout.indptr, getattr(new_graph, indptr_field)):
            new_graph.__dict__[side] = layout
            object.__setattr__(new_graph, indptr_field, layout.indptr)

    adopt("left_layout", "left_indptr", parent.left)
    adopt("right_layout", "right_indptr", parent.right)
    ws = RoundWorkspace(new_graph)
    new_graph.__dict__[_WORKSPACE_ATTR] = ws
    return ws


def resolve_workspace(
    graph: "BipartiteGraph", workspace: Optional[RoundWorkspace]
) -> RoundWorkspace:
    """Validate an injected workspace against ``graph``, or resolve the
    cached one.  The one guard every workspace-accepting entry point
    shares: a workspace other than the one ``graph`` owns is always a
    bug."""
    if workspace is None:
        return workspace_for(graph)
    if graph.__dict__.get(_WORKSPACE_ATTR) is not workspace:
        raise ValueError("workspace was built for a different graph")
    return workspace
