"""Parity oracle for :mod:`repro.rounding.repair`.

The sequential greedy scan the round loop replaced, kept verbatim in
behaviour: it draws ``rng.permutation`` over the non-selected edge ids
(or keeps them in canonical id order) and walks them one edge at a
time, adding each one whose endpoints still have room.
``tests/test_repair_parity.py`` holds
:func:`repro.rounding.repair.greedy_fill` to this scan's random order
bit for bit, and ``tests/layered_reference.py`` uses its canonical
order as the layer matcher's repair.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_integral_allocation
from repro.utils.rng import as_generator


def greedy_fill(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    edge_mask: np.ndarray,
    *,
    order: str = "random",
    seed=None,
) -> np.ndarray:
    """Extend ``edge_mask`` to a maximal allocation.

    Scans non-selected edges (random or canonical order) and adds each
    one that fits.  Returns a new mask; the input is not modified.
    """
    caps, mask, left_used, right_used = validate_integral_allocation(
        graph, capacities, edge_mask
    )
    mask = mask.copy()

    candidates = np.nonzero(~mask)[0]
    if order == "random":
        candidates = as_generator(seed).permutation(candidates)
    elif order != "canonical":
        raise ValueError(f"unknown order {order!r}")

    edge_u = graph.edge_u
    edge_v = graph.edge_v
    for e in candidates.tolist():
        u = edge_u[e]
        v = edge_v[e]
        if left_used[u] == 0 and right_used[v] < caps[v]:
            mask[e] = True
            left_used[u] = 1
            right_used[v] += 1
    return mask
