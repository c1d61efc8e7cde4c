"""Parity oracle for :mod:`repro.boosting.layered`.

The dict-of-lists layered build and path walk the array version
replaced, kept verbatim in behaviour: per-edge Python loops, one
``list`` of matched edge ids per (layer, v), consumed with
``list.pop()``.  ``tests/test_layered_parity.py`` holds the production
code to these, field by field and path by path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.boosting.augment import AugmentingPath, matched_partner_structure
from repro.graphs.bipartite import build_graph
from repro.graphs.capacities import validate_capacities
from repro.utils.rng import as_generator


@dataclass
class ReferenceLayeredGraph:
    k: int
    head_layer_of_left: np.ndarray
    matched_arc_of_left: np.ndarray
    slot_edges: list[np.ndarray]
    tail_arcs: list[dict[int, list[int]]]
    free_capacity: np.ndarray


def reference_build(graph, capacities, edge_mask, k, *, seed=None):
    caps = validate_capacities(graph, capacities)
    edge_mask = np.asarray(edge_mask, dtype=bool)
    rng = as_generator(seed)

    left_match, right_load = matched_partner_structure(graph, edge_mask)
    free_capacity = caps - right_load
    if np.any(free_capacity < 0):
        raise ValueError("edge_mask is not a feasible allocation")

    matched_ids = np.nonzero(edge_mask)[0]
    if k == 0:
        matched_layers = np.zeros(matched_ids.size, dtype=np.int64)
    else:
        matched_layers = rng.integers(1, k + 1, size=matched_ids.size)
    head_layer_of_left = np.full(graph.n_left, -1, dtype=np.int64)
    matched_arc_of_left = np.full(graph.n_left, -1, dtype=np.int64)
    tail_arcs: list[dict[int, list[int]]] = [defaultdict(list) for _ in range(k + 2)]
    for eid, layer in zip(matched_ids.tolist(), matched_layers.tolist()):
        if layer == 0:
            continue
        u = int(graph.edge_u[eid])
        v = int(graph.edge_v[eid])
        head_layer_of_left[u] = layer
        matched_arc_of_left[u] = eid
        tail_arcs[layer][v].append(eid)
    head_layer_of_left[left_match == -1] = 0

    unmatched_ids = np.nonzero(~edge_mask)[0]
    slots = rng.integers(0, k + 1, size=unmatched_ids.size)
    slot_edges: list[list[int]] = [[] for _ in range(k + 1)]
    for eid, slot in zip(unmatched_ids.tolist(), slots.tolist()):
        u = int(graph.edge_u[eid])
        v = int(graph.edge_v[eid])
        if head_layer_of_left[u] != slot:
            continue
        if slot == k:
            if free_capacity[v] <= 0:
                continue
        else:
            if not tail_arcs[slot + 1].get(v):
                continue
        slot_edges[slot].append(eid)

    return ReferenceLayeredGraph(
        k=k,
        head_layer_of_left=head_layer_of_left,
        matched_arc_of_left=matched_arc_of_left,
        slot_edges=[np.asarray(s, dtype=np.int64) for s in slot_edges],
        tail_arcs=tail_arcs,
        free_capacity=free_capacity.astype(np.int64),
    )


def _greedy(pairs, head_available, tail_capacity):
    chosen = []
    for u, v, eid in pairs:
        if head_available.get(u, 0) > 0 and tail_capacity.get(v, 0) > 0:
            head_available[u] -= 1
            tail_capacity[v] -= 1
            chosen.append((u, v, eid))
    return chosen


def _proportional(pairs, head_available, tail_capacity, epsilon, seed):
    from repro.core.local_driver import solve_fractional_until_certificate
    from repro.graphs.instances import AllocationInstance
    from repro.rounding.sampling import round_best_of
    from tests.repair_reference import greedy_fill

    heads = sorted({u for u, _, _ in pairs if head_available.get(u, 0) > 0})
    tails = sorted({v for _, v, _ in pairs if tail_capacity.get(v, 0) > 0})
    if not heads or not tails:
        return []
    head_index = {u: i for i, u in enumerate(heads)}
    tail_index = {v: i for i, v in enumerate(tails)}
    usable = [
        (u, v, eid)
        for u, v, eid in pairs
        if head_available.get(u, 0) > 0 and tail_capacity.get(v, 0) > 0
    ]
    if not usable:
        return []
    sub = build_graph(
        len(heads),
        len(tails),
        [head_index[u] for u, _, _ in usable],
        [tail_index[v] for _, v, _ in usable],
    )
    sub_caps = np.asarray([tail_capacity[v] for v in tails], dtype=np.int64)
    inst = AllocationInstance(graph=sub, capacities=sub_caps, name="layer-pair")
    frac = solve_fractional_until_certificate(inst, epsilon).allocation
    rounded = round_best_of(sub, sub_caps, frac, copies=8, seed=seed)
    mask = greedy_fill(sub, sub_caps, rounded.edge_mask, order="canonical")
    return _greedy(
        [usable[i] for i in np.nonzero(mask)[0].tolist()], head_available, tail_capacity
    )


def reference_find(graph, layered, *, layer_matcher="greedy", epsilon=0.25, seed=None):
    rng = as_generator(seed)
    k = layered.k

    paths_at_head = {}
    for u in np.nonzero(layered.head_layer_of_left == 0)[0].tolist():
        if layered.matched_arc_of_left[u] == -1:
            paths_at_head[u] = ([], [])

    completed = []
    arc_pool = [
        {v: list(arcs) for v, arcs in layer.items()} for layer in layered.tail_arcs
    ]
    free_pool = layered.free_capacity.copy()

    for slot in range(0, k + 1):
        if not paths_at_head:
            break
        pairs = [
            (int(graph.edge_u[eid]), int(graph.edge_v[eid]), int(eid))
            for eid in layered.slot_edges[slot].tolist()
        ]
        head_available = {u: 1 for u in paths_at_head}
        if slot == k:
            tail_capacity = {
                v: int(free_pool[v]) for v in {p[1] for p in pairs} if free_pool[v] > 0
            }
        else:
            tail_capacity = {
                v: len(arc_pool[slot + 1].get(v, [])) for v in {p[1] for p in pairs}
            }
        if layer_matcher == "greedy":
            chosen = _greedy(pairs, head_available, tail_capacity)
        else:
            chosen = _proportional(pairs, head_available, tail_capacity, epsilon, rng)

        next_paths = {}
        for u, v, eid in chosen:
            unmatched, matched = paths_at_head.pop(u)
            unmatched = unmatched + [eid]
            if slot == k:
                free_pool[v] -= 1
                completed.append(AugmentingPath(unmatched, list(matched)))
            else:
                arc = arc_pool[slot + 1][v].pop()
                next_paths[int(graph.edge_u[arc])] = (unmatched, matched + [arc])
        paths_at_head = next_paths

    return completed
