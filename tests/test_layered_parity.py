"""The array-based layered build and path walk against their oracle.

``tests/layered_reference.py`` keeps the dict-of-lists implementation
the sorted-array version replaced.  Both draw the same random numbers
in the same order, so every :class:`LayeredGraph` field and every
returned path must agree exactly, not statistically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import solve_exact
from repro.baselines.greedy import greedy_allocation
from repro.boosting.layered import build_layered_graph, find_layered_augmenting_paths
from repro.graphs import build_graph
from repro.graphs.generators import SIZED_FAMILIES, union_of_forests

from tests.layered_reference import reference_build, reference_find

MATCHERS = ("greedy", "proportional")


def assert_parity(graph, caps, mask, k, seed, matcher) -> list:
    """Build and walk with both implementations; return the paths."""
    got = build_layered_graph(graph, caps, mask, k, seed=seed)
    ref = reference_build(graph, caps, mask, k, seed=seed)
    assert got.k == ref.k == k
    for name in ("head_layer_of_left", "matched_arc_of_left", "free_capacity"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(got.slot_edges) == len(ref.slot_edges) == k + 1
    for a, b in zip(got.slot_edges, ref.slot_edges):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    groups = {
        (layer, v): arcs
        for layer, by_v in enumerate(ref.tail_arcs)
        for v, arcs in by_v.items()
        if arcs
    }
    assert got.tail_edges.size == sum(map(len, groups.values()))
    for (layer, v), arcs in groups.items():
        assert got.tail_group(layer, v).tolist() == arcs

    paths = find_layered_augmenting_paths(graph, got, layer_matcher=matcher, seed=seed)
    expected = reference_find(graph, ref, layer_matcher=matcher, seed=seed)
    assert [(p.unmatched_edges, p.matched_edges) for p in paths] == [
        (p.unmatched_edges, p.matched_edges) for p in expected
    ]
    return paths


def thinned(mask: np.ndarray) -> np.ndarray:
    """Drop every other matched edge: free vertices on both sides, so
    paths of every length exist to be found."""
    out = mask.copy()
    out[np.flatnonzero(mask)[::2]] = False
    return out


@pytest.mark.parametrize("family", sorted(SIZED_FAMILIES))
def test_parity_on_every_sized_family(family):
    inst = SIZED_FAMILIES[family](40, seed=1)
    g, caps = inst.graph, inst.capacities
    greedy = greedy_allocation(g, caps, order="random", seed=2)
    for mask in (greedy, thinned(greedy)):
        for k in range(5):
            for seed in range(3):
                for matcher in MATCHERS:
                    assert_parity(g, caps, mask, k, seed, matcher)


@pytest.mark.parametrize("matcher", MATCHERS)
def test_parity_from_empty_and_maximum_masks(matcher):
    inst = union_of_forests(50, 35, 3, capacity=2, seed=4)
    g, caps = inst.graph, inst.capacities
    empty = np.zeros(g.n_edges, dtype=bool)
    maximum = solve_exact(g, caps).edge_mask
    found = 0
    for k in range(5):
        for seed in range(3):
            found += len(assert_parity(g, caps, empty, k, seed, matcher))
            # No augmenting path exists, so none may be found.
            assert assert_parity(g, caps, maximum, k, seed, matcher) == []
    assert found > 0


@pytest.mark.parametrize("matcher", MATCHERS)
def test_parity_on_edgeless_graph(matcher):
    g = build_graph(4, 3, [], [])
    caps = np.ones(3, dtype=np.int64)
    for k in range(3):
        assert assert_parity(g, caps, np.zeros(0, dtype=bool), k, 0, matcher) == []


@pytest.mark.parametrize("matcher", MATCHERS)
def test_parity_when_one_right_vertex_holds_a_layer(matcher):
    """Right vertex 0 (capacity 4) holds the matched edges of left 0..3,
    all in layer 1 when k = 1.  Free left 4..6 reach it, and left 0..3
    each reach a free right vertex: every length-3 path crosses vertex
    0's one run of arcs, which is consumed highest edge id first."""
    eu = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6]
    ev = [0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 0]
    g = build_graph(7, 5, eu, ev)
    caps = np.array([4, 1, 1, 1, 1])
    mask = (g.edge_v == 0) & (g.edge_u < 4)
    arcs = np.flatnonzero(mask).tolist()
    crossed = []
    for seed in range(40):
        layered = build_layered_graph(g, caps, mask, 1, seed=seed)
        assert layered.tail_group(1, 0).tolist() == arcs
        for path in assert_parity(g, caps, mask, 1, seed, matcher):
            crossed += path.matched_edges
    assert crossed and set(crossed) <= set(arcs)
