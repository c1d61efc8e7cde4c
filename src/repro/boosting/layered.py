"""The GGM22 layered-graph framework, specialized to allocation (App. B).

One boosting iteration:

1. **Copies** (Step 1): every right vertex ``v`` notionally splits into
   ``C_v`` copies — ``deg_M(v)`` matched copies (one per matched edge)
   and ``C_v − deg_M(v)`` free copies.  Left vertices have one copy
   (``b ≡ 1`` on L).
2. **Free placement** (Step 2, App. B modification): free left copies
   go to layer 0, free right copies to layer ``k+1`` — deterministic
   for allocation, unlike the general b-matching framework.
3. **Matched arcs** (Step 3): each matched edge is assigned a uniform
   layer ``ℓ ∈ {1..k}``, oriented R→L; its right copy is the layer's
   tail, its left endpoint the layer's head.
4. **Unmatched slots** (Step 4): each unmatched edge ``{u,v}`` draws a
   uniform slot ``i ∈ {0..k}`` and survives only if ``u`` is a head of
   layer ``i`` (or free with ``i = 0``) and ``v`` has a tail copy in
   layer ``i+1`` (or free capacity when ``i = k``).
5. **Contraction** (Step 5): copies of ``v`` in a layer's tail set act
   as one node of capacity = #copies.

Augmenting paths of the original instance survive this construction
with probability ``1/exp(O(2^k))`` [GGM22]; the framework then finds a
set of vertex-disjoint layered augmenting paths by running an
allocation matcher between consecutive layers — here either greedy or
the paper's own proportional algorithm (``layer_matcher``), which is
the self-hosting App. B describes (each layer-pair instance is a
subgraph of G, so its arboricity is at most λ).

Layout: the layered matched arcs are one array of ``layer · n_right + v``
keys, stably sorted, beside their edge ids, so the copies of ``v`` in
``T_ℓ`` are a contiguous run of ascending edge ids found by
``searchsorted`` — O(m + n) memory, no per-edge Python loop.  The two
random draws keep a fixed order and size (matched layers, skipped when
``k = 0``, then unmatched slots) and each run is consumed from its
highest edge id down: the bit-parity contract of DESIGN.md §2.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.boosting.augment import AugmentingPath
from repro.graphs.bipartite import BipartiteGraph, build_graph
from repro.graphs.capacities import validate_integral_allocation
from repro.utils.rng import as_generator
from repro.utils.validation import check_nonnegative_int

__all__ = ["LayeredGraph", "build_layered_graph", "find_layered_augmenting_paths"]


@dataclass
class LayeredGraph:
    """One sampled layered structure.

    ``head_layer_of_left[u]`` — the layer whose head set contains
    ``u``'s single copy: 0 if ``u`` is free, ``ℓ ∈ {1..k}`` if its
    matched edge drew layer ℓ, −1 if ``u`` is isolated from the
    structure.  ``matched_arc_of_left[u]`` — the matched edge id
    providing that copy (−1 for free).  ``slot_edges[i]`` — unmatched
    edge ids that drew slot ``i`` and survived Step 4, ascending.
    ``tail_keys`` — ``ℓ · n_right + v`` of every layered matched arc,
    sorted; ``tail_edges`` — their edge ids, ascending within each
    ``(ℓ, v)`` run (read one through :meth:`tail_group`).
    ``free_capacity[v]`` — copies of ``v`` in ``T_{k+1}``.
    """

    k: int
    n_right: int
    head_layer_of_left: np.ndarray
    matched_arc_of_left: np.ndarray
    slot_edges: list[np.ndarray]
    tail_keys: np.ndarray
    tail_edges: np.ndarray
    free_capacity: np.ndarray

    def tail_bounds(self, layer, v) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: the run ``tail_edges[lo:hi]`` holding the copies
        of ``v`` in ``T_layer`` (elementwise over array arguments)."""
        return _run_bounds(self.tail_keys, layer * self.n_right + v)

    def tail_group(self, layer: int, v: int) -> np.ndarray:
        """Matched edge ids of ``v``'s copies in ``T_layer``, ascending."""
        lo, hi = self.tail_bounds(layer, v)
        return self.tail_edges[lo:hi]


def _run_bounds(sorted_keys: np.ndarray, keys) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.searchsorted(sorted_keys, keys, side="left"),
        np.searchsorted(sorted_keys, keys, side="right"),
    )


def build_layered_graph(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    edge_mask: np.ndarray,
    k: int,
    *,
    seed=None,
) -> LayeredGraph:
    """Steps 1–4 for one boosting iteration.

    The layer count ``k`` targets augmenting paths with *exactly* ``k``
    matched edges (length ``2k+1``): the path's matched edges must land
    in layers 1..k in order and its last unmatched edge must reach the
    free copies in layer ``k+1``.  ``k = 0`` is the degenerate single-
    slot structure that catches length-1 paths (free→free edges); the
    boosting driver cycles ``k`` over all target lengths.
    """
    k = check_nonnegative_int(k, "k")
    caps, mask, left_used, right_used = validate_integral_allocation(
        graph, capacities, edge_mask
    )
    rng = as_generator(seed)
    n_right = graph.n_right
    free_capacity = caps - right_used

    # Step 3: layer each matched edge uniformly in {1..k}.  With k = 0
    # there are no matched layers: matched edges (and their left
    # endpoints) sit outside the structure this iteration.
    matched_ids = np.flatnonzero(mask)
    head_layer_of_left = np.full(graph.n_left, -1, dtype=np.int64)
    matched_arc_of_left = np.full(graph.n_left, -1, dtype=np.int64)
    if k == 0:
        tail_keys = tail_edges = np.empty(0, dtype=np.int64)
    else:
        layers = rng.integers(1, k + 1, size=matched_ids.size)
        heads = graph.edge_u[matched_ids]
        head_layer_of_left[heads] = layers
        matched_arc_of_left[heads] = matched_ids
        keys = layers * n_right + graph.edge_v[matched_ids]
        order = np.argsort(keys, kind="stable")
        tail_keys, tail_edges = keys[order], matched_ids[order]
    # Step 2 (allocation form): free left copies live in layer 0.
    head_layer_of_left[left_used == 0] = 0

    # Step 4: slot each unmatched edge; keep it only when its left end
    # heads the slot's layer and its right end has a copy one layer on:
    # a tail copy in T_{slot+1}, or free capacity when slot = k.
    unmatched_ids = np.flatnonzero(~mask)
    slots = rng.integers(0, k + 1, size=unmatched_ids.size)
    cand = np.flatnonzero(head_layer_of_left[graph.edge_u[unmatched_ids]] == slots)
    slots = slots[cand]
    v = graph.edge_v[unmatched_ids[cand]]
    lo, hi = _run_bounds(tail_keys, (slots + 1) * n_right + v)
    reach = np.where(slots == k, free_capacity[v] > 0, hi > lo)
    kept, slots = unmatched_ids[cand[reach]], slots[reach]
    # A stable sort by slot keeps each slot's edge ids ascending.
    bounds = np.cumsum(np.bincount(slots, minlength=k + 1))[:-1]
    slot_edges = np.split(kept[np.argsort(slots, kind="stable")], bounds)

    return LayeredGraph(
        k=k,
        n_right=n_right,
        head_layer_of_left=head_layer_of_left,
        matched_arc_of_left=matched_arc_of_left,
        slot_edges=slot_edges,
        tail_keys=tail_keys,
        tail_edges=tail_edges,
        free_capacity=free_capacity,
    )


def _greedy_layer_matching(
    heads: np.ndarray, tails: np.ndarray, eids: np.ndarray, tail_left: np.ndarray
) -> list[tuple[int, int, int]]:
    """Greedy maximal matching over (head, tail, edge) triples in order:
    each head is used ≤ once, each tail ≤ its ``tail_left`` capacity."""
    capacity = dict(zip(tails.tolist(), tail_left.tolist()))
    used: set[int] = set()
    chosen: list[tuple[int, int, int]] = []
    for u, v, eid in zip(heads.tolist(), tails.tolist(), eids.tolist()):
        if u not in used and capacity[v] > 0:
            used.add(u)
            capacity[v] -= 1
            chosen.append((u, v, eid))
    return chosen


def _proportional_layer_matching(
    heads: np.ndarray,
    tails: np.ndarray,
    eids: np.ndarray,
    tail_left: np.ndarray,
    active: np.ndarray,
    epsilon: float,
    seed,
) -> list[tuple[int, int, int]]:
    """Use the paper's own machinery as the layer matcher A (App. B):
    solve the layer-pair allocation instance fractionally with the
    proportional dynamics, round (§6), then greedily repair.  The
    layer-pair graph is a subgraph of G, so λ does not increase.

    The instance's vertices are every active head and every tail with
    capacity left among the slot's edges — a tail whose only edges
    lead to inactive heads stays in as an isolated vertex.

    The repair is canonical-order greedy from the rounded mask R:
    accept R, then scan the remaining triples in edge-id order.  That
    is :func:`_greedy_layer_matching` fed R's triples first and the
    rest after; the chosen triples are returned in edge-id order, the
    order the path walk consumes."""
    from repro.core.local_driver import solve_fractional_until_certificate
    from repro.graphs.capacities import validate_integral_allocation
    from repro.graphs.instances import AllocationInstance
    from repro.rounding.sampling import round_best_of

    has_tail = tail_left > 0
    sub_heads = np.unique(heads[active])
    sub_tails, first = np.unique(tails[has_tail], return_index=True)
    usable = active & has_tail
    if not sub_heads.size or not sub_tails.size or not usable.any():
        return []
    sub_caps = tail_left[has_tail][first]
    heads, tails, eids, tail_left = (a[usable] for a in (heads, tails, eids, tail_left))
    # Slot edges ascend, so the usable triples are already in the
    # sub-graph's canonical (head, tail) order: local edge i is triple i.
    sub = build_graph(
        sub_heads.size,
        sub_tails.size,
        np.searchsorted(sub_heads, heads),
        np.searchsorted(sub_tails, tails),
    )
    inst = AllocationInstance(graph=sub, capacities=sub_caps, name="layer-pair")
    frac = solve_fractional_until_certificate(inst, epsilon).allocation
    rounded = round_best_of(sub, sub_caps, frac, copies=8, seed=seed)
    _, mask, _, _ = validate_integral_allocation(sub, sub_caps, rounded.edge_mask)
    scan = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
    chosen = _greedy_layer_matching(heads[scan], tails[scan], eids[scan], tail_left[scan])
    return sorted(chosen, key=lambda triple: triple[2])


def find_layered_augmenting_paths(
    graph: BipartiteGraph,
    layered: LayeredGraph,
    *,
    layer_matcher: Literal["greedy", "proportional"] = "greedy",
    epsilon: float = 0.25,
    seed=None,
) -> list[AugmentingPath]:
    """Walk the layers 0..k, extending vertex-disjoint partial paths.

    At slot ``i`` the surviving unmatched edges connect active heads of
    layer ``i`` to tail copies of layer ``i+1``; a (b-)matching between
    them extends the partial paths.  Tails at layer ``ℓ ≤ k`` continue
    through one of their matched arcs to that arc's head; tails at
    ``k+1`` complete a path.  Each ``(ℓ, v)`` run of arcs is consumed
    from its highest edge id down.
    """
    if layer_matcher not in ("greedy", "proportional"):
        raise ValueError(f"unknown layer_matcher {layer_matcher!r}")
    rng = as_generator(seed)
    k = layered.k

    # Active partial paths, keyed by their current head vertex.
    paths_at_head: dict[int, tuple[list[int], list[int]]] = {
        u: ([], []) for u in np.flatnonzero(layered.head_layer_of_left == 0).tolist()
    }
    completed: list[AugmentingPath] = []
    # Arcs taken so far from each (ℓ, v) run, indexed by the run's start.
    taken = np.zeros(layered.tail_edges.size, dtype=np.int64)
    free_pool = layered.free_capacity.copy()
    active = np.zeros(graph.n_left, dtype=bool)

    for slot in range(0, k + 1):
        if not paths_at_head:
            break
        eids = layered.slot_edges[slot]
        heads, tails = graph.edge_u[eids], graph.edge_v[eids]
        if slot == k:
            tail_left = free_pool[tails]
        else:
            lo, hi = layered.tail_bounds(slot + 1, tails)
            tail_left = hi - lo - taken[lo]
        active[:] = False
        active[list(paths_at_head)] = True
        if layer_matcher == "greedy":
            usable = active[heads] & (tail_left > 0)
            chosen = _greedy_layer_matching(
                heads[usable], tails[usable], eids[usable], tail_left[usable]
            )
        else:
            chosen = _proportional_layer_matching(
                heads, tails, eids, tail_left, active[heads], epsilon, rng
            )

        next_paths: dict[int, tuple[list[int], list[int]]] = {}
        for u, v, eid in chosen:
            unmatched, matched = paths_at_head.pop(u)
            unmatched = unmatched + [eid]
            if slot == k:
                free_pool[v] -= 1
                completed.append(AugmentingPath(unmatched, list(matched)))
            else:
                lo, hi = layered.tail_bounds(slot + 1, v)
                arc = int(layered.tail_edges[hi - 1 - taken[lo]])
                taken[lo] += 1
                next_paths[int(graph.edge_u[arc])] = (unmatched, matched + [arc])
        # Paths that failed to extend die for this iteration.
        paths_at_head = next_paths

    return completed
