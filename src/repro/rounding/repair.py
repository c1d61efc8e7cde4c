"""Greedy repair / fill-in after randomized rounding (extension).

The §6 procedure throws away a lot of mass (the 1/9 factor is loose by
design), leaving residual capacity on both sides.  A maximality pass —
greedily adding any edge whose endpoints still have slack — never
violates feasibility and can only grow the allocation; it turns the
§6 output into a *maximal* allocation, which is a ½-approximation on
its own.  This is not part of the paper's analysis; E7b ablates how
much of the constant-factor gap it recovers in practice.

The pass is the random-order greedy scan, computed in a few
data-parallel rounds rather than one edge at a time (DESIGN.md §2.6):
each round accepts every edge the scan is certain to accept given the
edges already decided, so the output is the scan's mask bit for bit.
``tests/repair_reference.py`` keeps the sequential scan as the oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_integral_allocation
from repro.utils.rng import as_generator

__all__ = ["greedy_fill"]

# numpy's stable sort is a radix sort on 16-bit keys, several times
# faster than its merge sort on int64 ones; ids below this fit.
_RADIX_KEY_LIMIT = 1 << 16


def _grouped(
    eids: np.ndarray, ends: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """``eids`` grouped by their endpoint in ``ends``, in their given
    order within each vertex, and the endpoint of each."""
    end = ends[eids]
    keys = end.astype(np.uint16) if n_vertices <= _RADIX_KEY_LIMIT else end
    pos = np.argsort(keys, kind="stable")
    return eids[pos], end[pos]


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """True where a run of equal ``keys`` starts."""
    heads = np.empty(keys.size, dtype=bool)
    heads[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def _rank_in_runs(keys: np.ndarray) -> np.ndarray:
    """Each entry's position within its run of equal ``keys``."""
    rank = np.arange(keys.size)
    start = np.where(_run_heads(keys), rank, 0)
    np.maximum.accumulate(start, out=start)
    rank -= start
    return rank


def greedy_fill(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    edge_mask: np.ndarray,
    *,
    seed=None,
    live_edges: Optional[list[int]] = None,
) -> np.ndarray:
    """Extend ``edge_mask`` to a maximal allocation.

    Returns the mask of the random-order greedy scan: shuffle the
    non-selected edge ids with ``rng.permutation`` and add, in that
    order, each edge whose left vertex is free and whose right vertex
    has residual capacity.  It is computed in rounds over the *live*
    edges (both endpoints still open).  A round accepts every live
    edge that is the earliest live edge at its left vertex and among
    the first ``r_v`` live edges at its right vertex ``v`` (``r_v`` its
    residual capacity), then drops the live edges of newly matched
    left and newly full right vertices.  The scan accepts every edge
    chosen this way, and the earliest live edge always qualifies, so
    each round makes progress and the mask equals the scan's.

    If ``live_edges`` is a list, the live-edge count at the start of
    each round is appended to it; its length is the round count.  The
    mask does not depend on it.  Returns a new mask; the input is not
    modified.
    """
    caps, mask, left_used, right_used = validate_integral_allocation(
        graph, capacities, edge_mask
    )
    mask = mask.copy()
    left_free = left_used == 0
    residual = caps - right_used
    edge_u, edge_v = graph.edge_u, graph.edge_v
    # The scan's order, restricted to the live edges.
    order = as_generator(seed).permutation(np.flatnonzero(~mask))
    order = order[(left_free[edge_u] & (residual > 0)[edge_v])[order]]

    # Live edge ids grouped by left and by right vertex, earliest first;
    # each round compresses both groupings in place of re-sorting.
    by_u, u_of = _grouped(order, edge_u, graph.n_left)
    by_v, v_of = _grouped(order, edge_v, graph.n_right)
    del order  # only the groupings stay alive through the rounds
    # An edge that heads its left vertex's run stays the earliest live
    # edge there for as long as it is live, so the flags only accumulate.
    earliest_at_u = np.zeros(graph.n_edges, dtype=bool)
    while by_v.size:
        if live_edges is not None:
            live_edges.append(int(by_v.size))
        earliest_at_u[by_u[_run_heads(u_of)]] = True
        take = by_v[(_rank_in_runs(v_of) < residual[v_of]) & earliest_at_u[by_v]]
        mask[take] = True
        left_free[edge_u[take]] = False
        np.subtract.at(residual, edge_v[take], 1)
        keep = left_free[u_of] & (residual > 0)[edge_v[by_u]]
        by_u, u_of = by_u[keep], u_of[keep]
        keep = (residual > 0)[v_of] & left_free[edge_u[by_v]]
        by_v, v_of = by_v[keep], v_of[keep]
    return mask
