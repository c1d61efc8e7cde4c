"""Immutable CSR bipartite graph.

The allocation algorithms are edge-parallel: each LOCAL round computes
a value per edge from per-endpoint state, then aggregates back to the
endpoints.  A dual-CSR layout (one adjacency per side, each slot
carrying the global edge id) lets every per-round step be expressed as
segment operations — row reductions over contiguous neighbourhood
slices and bincount scatters — following the vectorize-don't-loop
idiom of the domain guides.  The segment helpers delegate to the
pluggable kernel layer (:mod:`repro.kernels`, DESIGN.md §6); each
graph lazily caches one :class:`~repro.kernels.SegmentLayout` per side
holding the slot-owner gather indices and ``reduceat`` offsets the
optimized backend reuses across rounds.

Conventions
-----------
* Left vertices are ``0 .. n_left-1``; right vertices ``0 .. n_right-1``
  (separate id spaces).
* Edges are identified by their position in the canonical edge arrays
  ``edge_u`` / ``edge_v`` (sorted lexicographically by ``(u, v)``).
* ``left_adj[left_indptr[u]:left_indptr[u+1]]`` lists the right
  neighbours of ``u``; ``left_edge`` gives the matching edge ids.
  By construction the L-side slot order coincides with canonical edge
  order, i.e. ``left_edge == arange(m)``; it is materialized anyway so
  code can stay layout-agnostic.
* Parallel edges are rejected: the allocation problem is defined on
  simple bipartite graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro import kernels
from repro.kernels import SegmentLayout
from repro.utils.validation import check_integer_array, check_nonnegative_int

__all__ = ["BipartiteGraph", "build_graph", "from_neighbor_lists"]


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph in dual-CSR form.

    Use :func:`build_graph` or :func:`from_neighbor_lists` to
    construct; the constructor assumes arrays are already consistent.
    """

    n_left: int
    n_right: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    left_indptr: np.ndarray
    left_adj: np.ndarray
    left_edge: np.ndarray
    right_indptr: np.ndarray
    right_adj: np.ndarray
    right_edge: np.ndarray

    def __getstate__(self) -> dict:
        """Pickle and deep-copy the dataclass fields only.

        A solved graph also caches its layouts and round workspace in
        ``__dict__``; the workspace holds a ``threading.local``, which
        cannot be pickled, and every cache rebuilds on demand.
        """
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        """Number of edges ``m``."""
        return int(self.edge_u.shape[0])

    @property
    def n_vertices(self) -> int:
        """Total vertex count ``n = |L| + |R|``."""
        return self.n_left + self.n_right

    @property
    def left_degrees(self) -> np.ndarray:
        """Degree of every left vertex (int64, shape ``(n_left,)``,
        read-only — the layout's canonical cached array)."""
        return self.left_layout.degrees

    @property
    def right_degrees(self) -> np.ndarray:
        """Degree of every right vertex (int64, shape ``(n_right,)``,
        read-only — the layout's canonical cached array)."""
        return self.right_layout.degrees

    @cached_property
    def left_layout(self) -> SegmentLayout:
        """Cached kernel layout of the L-CSR side (DESIGN.md §6)."""
        return SegmentLayout(self.left_indptr)

    @cached_property
    def right_layout(self) -> SegmentLayout:
        """Cached kernel layout of the R-CSR side (DESIGN.md §6)."""
        return SegmentLayout(self.right_indptr)

    @property
    def left_slot_owner(self) -> np.ndarray:
        """Left row id of every L-CSR slot — ``per_row[left_slot_owner]``
        replaces per-round ``np.repeat(per_row, left_degrees)``."""
        return self.left_layout.slot_owner

    @property
    def right_slot_owner(self) -> np.ndarray:
        """Right row id of every R-CSR slot (see ``left_slot_owner``)."""
        return self.right_layout.slot_owner

    @property
    def max_degree(self) -> int:
        """Maximum degree over both sides (0 for the empty graph)."""
        best = 0
        if self.n_left:
            best = max(best, int(self.left_degrees.max(initial=0)))
        if self.n_right:
            best = max(best, int(self.right_degrees.max(initial=0)))
        return best

    def left_neighbors(self, u: int) -> np.ndarray:
        """Right neighbours of left vertex ``u`` (a CSR view, do not mutate)."""
        return self.left_adj[self.left_indptr[u] : self.left_indptr[u + 1]]

    def right_neighbors(self, v: int) -> np.ndarray:
        """Left neighbours of right vertex ``v`` (a CSR view, do not mutate)."""
        return self.right_adj[self.right_indptr[v] : self.right_indptr[v + 1]]

    def left_incident_edges(self, u: int) -> np.ndarray:
        """Edge ids incident to left vertex ``u``."""
        return self.left_edge[self.left_indptr[u] : self.left_indptr[u + 1]]

    def right_incident_edges(self, v: int) -> np.ndarray:
        """Edge ids incident to right vertex ``v``."""
        return self.right_edge[self.right_indptr[v] : self.right_indptr[v + 1]]

    def edges(self) -> Iterable[tuple[int, int]]:
        """Iterate ``(u, v)`` pairs in canonical edge order."""
        for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
            yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in the (sorted) L-CSR row."""
        row = self.left_neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.shape[0] and row[pos] == v)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph_by_edges(self, edge_mask: np.ndarray) -> "BipartiteGraph":
        """Graph on the same vertex set keeping only masked edges.

        ``edge_mask`` may be a boolean mask over edges or an array of
        edge ids.  Vertex ids are preserved (isolated vertices remain).
        """
        edge_mask = np.asarray(edge_mask)
        if edge_mask.dtype == bool:
            if edge_mask.shape != (self.n_edges,):
                raise ValueError(
                    f"boolean edge mask must have shape ({self.n_edges},), got {edge_mask.shape}"
                )
            keep_u = self.edge_u[edge_mask]
            keep_v = self.edge_v[edge_mask]
        else:
            ids = check_integer_array(edge_mask, "edge ids")
            if ids.size and (ids.min() < 0 or ids.max() >= self.n_edges):
                raise ValueError("edge ids out of range")
            keep_u = self.edge_u[ids]
            keep_v = self.edge_v[ids]
        return build_graph(self.n_left, self.n_right, keep_u, keep_v)

    def induced_subgraph(
        self, left_vertices: np.ndarray, right_vertices: np.ndarray
    ) -> tuple["BipartiteGraph", np.ndarray, np.ndarray]:
        """Subgraph induced by the given vertex subsets, with relabeling.

        Returns ``(subgraph, left_ids, right_ids)`` where ``left_ids[i]``
        is the original id of new left vertex ``i`` (same for right).
        Used by the arboricity analysis (density of ``N(L_2τ) ∪ L_0``)
        and the boosting layer-pair subinstances.
        """
        left_ids = np.unique(check_integer_array(left_vertices, "left_vertices"))
        right_ids = np.unique(check_integer_array(right_vertices, "right_vertices"))
        if left_ids.size and (left_ids.min() < 0 or left_ids.max() >= self.n_left):
            raise ValueError("left vertex ids out of range")
        if right_ids.size and (right_ids.min() < 0 or right_ids.max() >= self.n_right):
            raise ValueError("right vertex ids out of range")

        left_map = np.full(self.n_left, -1, dtype=np.int64)
        left_map[left_ids] = np.arange(left_ids.size, dtype=np.int64)
        right_map = np.full(self.n_right, -1, dtype=np.int64)
        right_map[right_ids] = np.arange(right_ids.size, dtype=np.int64)

        keep = (left_map[self.edge_u] >= 0) & (right_map[self.edge_v] >= 0)
        sub = build_graph(
            left_ids.size,
            right_ids.size,
            left_map[self.edge_u[keep]],
            right_map[self.edge_v[keep]],
        )
        return sub, left_ids, right_ids

    def reverse(self) -> "BipartiteGraph":
        """Swap the two sides (L ↔ R); edge ids are re-canonicalized."""
        return build_graph(self.n_right, self.n_left, self.edge_v, self.edge_u)

    # ------------------------------------------------------------------
    # Undirected views (for arboricity machinery)
    # ------------------------------------------------------------------
    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge list over the merged vertex space ``L ⊎ R``.

        Left vertex ``u`` keeps id ``u``; right vertex ``v`` becomes
        ``n_left + v``.  Arboricity is a property of the underlying
        undirected graph, so the analysis modules consume this view.
        """
        return self.edge_u.copy(), self.edge_v + self.n_left

    # ------------------------------------------------------------------
    # Segment helpers used by the allocation inner loops
    # ------------------------------------------------------------------
    def left_segment_sum(self, per_slot: np.ndarray) -> np.ndarray:
        """Sum a per-L-slot array within each left vertex's CSR row."""
        return kernels.segment_sum(per_slot, self.left_indptr, layout=self.left_layout)

    def right_segment_sum(self, per_slot: np.ndarray) -> np.ndarray:
        """Sum a per-R-slot array within each right vertex's CSR row."""
        return kernels.segment_sum(per_slot, self.right_indptr, layout=self.right_layout)

    def left_segment_max(self, per_slot: np.ndarray, empty: float) -> np.ndarray:
        """Max within each left row; ``empty`` fills degree-0 rows."""
        return kernels.segment_max(
            per_slot, self.left_indptr, empty, layout=self.left_layout
        )

    def right_segment_max(self, per_slot: np.ndarray, empty: float) -> np.ndarray:
        """Max within each right row; ``empty`` fills degree-0 rows."""
        return kernels.segment_max(
            per_slot, self.right_indptr, empty, layout=self.right_layout
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Exhaustive internal-consistency check (used by tests)."""
        m = self.n_edges
        assert self.edge_v.shape == (m,)
        assert self.left_indptr.shape == (self.n_left + 1,)
        assert self.right_indptr.shape == (self.n_right + 1,)
        assert self.left_indptr[0] == 0 and self.left_indptr[-1] == m
        assert self.right_indptr[0] == 0 and self.right_indptr[-1] == m
        assert np.all(np.diff(self.left_indptr) >= 0)
        assert np.all(np.diff(self.right_indptr) >= 0)
        if m:
            assert 0 <= self.edge_u.min() and self.edge_u.max() < self.n_left
            assert 0 <= self.edge_v.min() and self.edge_v.max() < self.n_right
        # CSR slots agree with the edge arrays.
        assert np.array_equal(self.edge_v[self.left_edge], self.left_adj)
        assert np.array_equal(self.edge_u[self.right_edge], self.right_adj)
        # Each side's slots cover every edge exactly once.
        assert np.array_equal(np.sort(self.left_edge), np.arange(m))
        assert np.array_equal(np.sort(self.right_edge), np.arange(m))
        # Rows are sorted and duplicate-free (simple graph).  Vectorized:
        # adjacent slot pairs that lie inside the same row must strictly
        # increase; pairs straddling a row boundary are exempt.
        for indptr, adj in (
            (self.left_indptr, self.left_adj),
            (self.right_indptr, self.right_adj),
        ):
            if m > 1:
                boundary = np.zeros(m, dtype=bool)
                starts = indptr[:-1][np.diff(indptr) > 0]
                boundary[starts] = True
                same_row = ~boundary[1:]
                assert np.all(np.diff(adj)[same_row] > 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(n_left={self.n_left}, n_right={self.n_right}, "
            f"m={self.n_edges})"
        )


def build_graph(
    n_left: int,
    n_right: int,
    edge_u: Sequence[int] | np.ndarray,
    edge_v: Sequence[int] | np.ndarray,
) -> BipartiteGraph:
    """Construct a :class:`BipartiteGraph` from an edge list.

    Edges are canonicalized to lexicographic ``(u, v)`` order; parallel
    edges raise ``ValueError`` (the allocation problem is defined on
    simple graphs — deduplicate upstream if a generator can collide).
    """
    n_left = check_nonnegative_int(n_left, "n_left")
    n_right = check_nonnegative_int(n_right, "n_right")
    edge_u = check_integer_array(np.asarray(edge_u, dtype=np.int64), "edge_u")
    edge_v = check_integer_array(np.asarray(edge_v, dtype=np.int64), "edge_v")
    if edge_u.shape != edge_v.shape or edge_u.ndim != 1:
        raise ValueError("edge_u and edge_v must be 1-D arrays of equal length")
    m = edge_u.shape[0]
    if m:
        if edge_u.min() < 0 or edge_u.max() >= n_left:
            raise ValueError("edge_u contains ids outside [0, n_left)")
        if edge_v.min() < 0 or edge_v.max() >= n_right:
            raise ValueError("edge_v contains ids outside [0, n_right)")

    # Canonical order: lexicographic by (u, v).
    order = np.lexsort((edge_v, edge_u))
    edge_u = np.ascontiguousarray(edge_u[order])
    edge_v = np.ascontiguousarray(edge_v[order])

    if m > 1:
        dup = (edge_u[1:] == edge_u[:-1]) & (edge_v[1:] == edge_v[:-1])
        if np.any(dup):
            i = int(np.argmax(dup))
            raise ValueError(
                f"parallel edge ({edge_u[i]}, {edge_v[i]}): the allocation problem "
                "is defined on simple graphs"
            )

    left_indptr = np.zeros(n_left + 1, dtype=np.int64)
    if m:
        np.add.at(left_indptr, edge_u + 1, 1)
    np.cumsum(left_indptr, out=left_indptr)
    left_adj = edge_v.copy()
    left_edge = np.arange(m, dtype=np.int64)

    # R-side CSR: sort edge ids by (v, u); rows come out sorted by u.
    r_order = np.lexsort((edge_u, edge_v))
    right_indptr = np.zeros(n_right + 1, dtype=np.int64)
    if m:
        np.add.at(right_indptr, edge_v + 1, 1)
    np.cumsum(right_indptr, out=right_indptr)
    right_adj = edge_u[r_order]
    right_edge = r_order.astype(np.int64)

    graph = BipartiteGraph(
        n_left=n_left,
        n_right=n_right,
        edge_u=edge_u,
        edge_v=edge_v,
        left_indptr=left_indptr,
        left_adj=left_adj,
        left_edge=left_edge,
        right_indptr=right_indptr,
        right_adj=right_adj,
        right_edge=right_edge,
    )
    # Freeze the arrays: the dataclass is frozen but ndarrays are not.
    for arr in (
        graph.edge_u, graph.edge_v, graph.left_indptr, graph.left_adj,
        graph.left_edge, graph.right_indptr, graph.right_adj, graph.right_edge,
    ):
        arr.setflags(write=False)
    return graph


def from_neighbor_lists(neighbors: Sequence[Sequence[int]], n_right: int) -> BipartiteGraph:
    """Build from per-left-vertex neighbour lists (test convenience)."""
    edge_u: list[int] = []
    edge_v: list[int] = []
    for u, nbrs in enumerate(neighbors):
        for v in nbrs:
            edge_u.append(u)
            edge_v.append(v)
    return build_graph(len(neighbors), n_right, edge_u, edge_v)
