"""Greedy allocation baselines.

``greedy_allocation`` scans edges in a given order and takes every edge
whose endpoints still have residual capacity — the standard maximal-
allocation baseline.  A maximal allocation is a ½-approximation (every
optimal edge shares an endpoint with some chosen edge, and each chosen
edge can block at most two optimal ones — the same argument as maximal
matching, applied to the b-matching polytope).

This is the cheap comparator the experiment tables include alongside
the proportional-allocation family, and the quality floor tests assert
against.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.rounding.repair import greedy_fill

__all__ = ["greedy_allocation", "is_maximal_allocation"]


def greedy_allocation(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    *,
    order: str = "canonical",
    seed=None,
) -> np.ndarray:
    """Boolean edge mask of a maximal allocation.

    ``order`` is ``"canonical"`` (edge-id order), ``"random"`` (uniform
    shuffle — the standard randomized-greedy baseline), or
    ``"degree"`` (edges at low-degree left vertices first, a well-known
    heuristic that helps on skewed instances).

    The random order is :func:`~repro.rounding.repair.greedy_fill` from
    an empty mask, which computes the scan in a few rounds
    (``rng.permutation(m)`` and ``rng.permutation(np.arange(m))`` draw
    the same shuffle).  The fixed orders have no short round bound, so
    they keep the sequential scan.
    """
    if order == "random":
        return greedy_fill(graph, capacities, np.zeros(graph.n_edges, dtype=bool), seed=seed)
    caps = validate_capacities(graph, capacities)
    m = graph.n_edges
    if order == "canonical":
        perm = np.arange(m, dtype=np.int64)
    elif order == "degree":
        perm = np.argsort(graph.left_degrees[graph.edge_u], kind="stable").astype(np.int64)
    else:
        raise ValueError(f"unknown order {order!r}")

    left_free = np.ones(graph.n_left, dtype=bool)
    right_residual = caps.copy()
    mask = np.zeros(m, dtype=bool)
    edge_u = graph.edge_u
    edge_v = graph.edge_v
    for e in perm.tolist():
        u = edge_u[e]
        v = edge_v[e]
        if left_free[u] and right_residual[v] > 0:
            mask[e] = True
            left_free[u] = False
            right_residual[v] -= 1
    return mask


def is_maximal_allocation(
    graph: BipartiteGraph, capacities: np.ndarray, edge_mask: np.ndarray
) -> bool:
    """Check that no edge can be added without violating a constraint."""
    caps = validate_capacities(graph, capacities)
    edge_mask = np.asarray(edge_mask, dtype=bool)
    left_used = np.zeros(graph.n_left, dtype=np.int64)
    right_used = np.zeros(graph.n_right, dtype=np.int64)
    np.add.at(left_used, graph.edge_u[edge_mask], 1)
    np.add.at(right_used, graph.edge_v[edge_mask], 1)
    if np.any(left_used > 1) or np.any(right_used > caps):
        return False  # not even feasible
    addable = (~edge_mask) & (left_used[graph.edge_u] == 0) & (
        right_used[graph.edge_v] < caps[graph.edge_v]
    )
    return not bool(np.any(addable))
