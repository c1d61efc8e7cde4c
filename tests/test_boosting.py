"""Tests for augmenting paths and the App. B boosting framework."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.exact import optimum_value, solve_exact
from repro.baselines.greedy import greedy_allocation
from repro.boosting.augment import (
    AugmentingPath,
    apply_augmenting_path,
    eliminate_short_augmenting_paths,
    find_augmenting_path,
    matched_partner_structure,
)
from repro.boosting.boost import boost_allocation, k_for_epsilon
from repro.boosting.layered import build_layered_graph, find_layered_augmenting_paths
from repro.graphs import build_graph
from repro.graphs.generators import star_instance, union_of_forests
from repro.graphs.instances import AllocationInstance

from tests.conftest import assert_feasible_integral


def test_augmenting_path_structure_validation():
    with pytest.raises(ValueError):
        AugmentingPath([0], [1])  # lengths must differ by exactly one
    p = AugmentingPath([0, 1], [2])
    assert p.length == 3


def test_matched_partner_structure(path_graph):
    mask = np.array([True, False, False])
    left_match, right_load = matched_partner_structure(path_graph, mask)
    assert left_match.tolist() == [0, -1]
    assert right_load.tolist() == [1, 0]


def test_find_augmenting_path_trivial():
    # Single edge, nothing matched: the path is that edge.
    g = build_graph(1, 1, [0], [0])
    caps = np.array([1])
    path = find_augmenting_path(g, caps, np.array([False]))
    assert path is not None
    assert path.length == 1
    new = apply_augmenting_path(np.array([False]), path)
    assert new.tolist() == [True]


def test_find_augmenting_path_alternating():
    # P4: L0-R0, L1-R0, L1-R1; match (L1,R0); augmenting path of len 3
    # frees R0 for L0.
    g = build_graph(2, 2, [0, 1, 1], [0, 0, 1])
    caps = np.array([1, 1])
    mask = np.zeros(3, dtype=bool)
    mask[1] = True  # (L1, R0)
    path = find_augmenting_path(g, caps, mask)
    assert path is not None
    assert path.length == 3
    new = apply_augmenting_path(mask, path)
    assert int(new.sum()) == 2


def test_find_augmenting_path_respects_max_length():
    g = build_graph(2, 2, [0, 1, 1], [0, 0, 1])
    caps = np.array([1, 1])
    mask = np.zeros(3, dtype=bool)
    mask[1] = True
    assert find_augmenting_path(g, caps, mask, max_length=1) is None
    assert find_augmenting_path(g, caps, mask, max_length=3) is not None


def test_find_augmenting_path_none_when_optimal():
    inst = star_instance(4, center_capacity=2)
    sol = solve_exact(inst.graph, inst.capacities)
    assert find_augmenting_path(inst.graph, inst.capacities, sol.edge_mask) is None


def test_apply_validates_edge_states():
    with pytest.raises(ValueError):
        apply_augmenting_path(np.array([True]), AugmentingPath([0], []))


def test_eliminate_unbounded_reaches_optimum():
    for seed in range(4):
        inst = union_of_forests(20, 15, 2, capacity=2, seed=seed)
        start = greedy_allocation(inst.graph, inst.capacities, order="random", seed=seed)
        mask, _ = eliminate_short_augmenting_paths(
            inst.graph, inst.capacities, start
        )
        assert int(mask.sum()) == optimum_value(inst)
        assert_feasible_integral(inst.graph, inst.capacities, mask)


def test_eliminate_bounded_gives_1_plus_1_over_k():
    """No augmenting path of length ≤ 2k−1 ⇒ size ≥ OPT·k/(k+1)."""
    for seed in range(3):
        inst = union_of_forests(25, 18, 3, capacity=2, seed=seed)
        start = greedy_allocation(inst.graph, inst.capacities, order="random", seed=seed)
        opt = optimum_value(inst)
        for k in (1, 2, 3):
            mask, _ = eliminate_short_augmenting_paths(
                inst.graph, inst.capacities, start, max_length=2 * k - 1
            )
            assert int(mask.sum()) * (k + 1) >= opt * k


def test_augmentation_budget_respected(small_forest_instance):
    inst = small_forest_instance
    start = np.zeros(inst.graph.n_edges, dtype=bool)
    mask, n = eliminate_short_augmenting_paths(
        inst.graph, inst.capacities, start, max_augmentations=2
    )
    assert n == 2
    assert int(mask.sum()) == 2


# ----------------------------------------------------------------------
# Layered framework
# ----------------------------------------------------------------------

def test_layered_graph_structure(medium_forest_instance):
    inst = medium_forest_instance
    mask = greedy_allocation(inst.graph, inst.capacities, order="random", seed=0)
    layered = build_layered_graph(inst.graph, inst.capacities, mask, k=3, seed=1)
    # Every matched left vertex is a head of exactly the layer of its arc.
    left_match, _ = matched_partner_structure(inst.graph, mask)
    for u in range(inst.graph.n_left):
        if left_match[u] >= 0:
            layer = int(layered.head_layer_of_left[u])
            assert 1 <= layer <= 3
            assert layered.matched_arc_of_left[u] == left_match[u]
            v = int(inst.graph.edge_v[left_match[u]])
            assert left_match[u] in layered.tail_group(layer, v).tolist()
        elif inst.graph.left_degrees[u] >= 0:
            assert layered.head_layer_of_left[u] == 0
    # Surviving slot edges satisfy the Step-4 co-location condition.
    for slot in range(4):
        for eid in layered.slot_edges[slot].tolist():
            u = int(inst.graph.edge_u[eid])
            assert layered.head_layer_of_left[u] == slot


def test_layered_graph_rejects_infeasible(small_star):
    bad = np.ones(small_star.graph.n_edges, dtype=bool)
    with pytest.raises(ValueError):
        build_layered_graph(small_star.graph, small_star.capacities, bad, k=2)


def test_boost_rejects_left_vertex_matched_twice():
    """Left vertex 0 holds two edges while every right capacity holds:
    infeasible, and boosting it used to return the infeasible [T, T, T]."""
    inst = AllocationInstance(
        graph=build_graph(2, 2, [0, 0, 1], [0, 1, 1]), capacities=np.array([1, 2])
    )
    bad = np.array([True, True, False])
    with pytest.raises(ValueError, match="left vertex"):
        build_layered_graph(inst.graph, inst.capacities, bad, k=1)
    for mode in ("layered", "deterministic"):
        with pytest.raises(ValueError, match="left vertex"):
            boost_allocation(inst, bad, 0.5, mode=mode, seed=0)


def test_layered_paths_are_valid_augmentations():
    inst = union_of_forests(30, 20, 2, capacity=2, seed=5)
    mask = greedy_allocation(inst.graph, inst.capacities, order="random", seed=5)
    found_any = False
    for seed in range(30):
        layered = build_layered_graph(inst.graph, inst.capacities, mask, k=2, seed=seed)
        paths = find_layered_augmenting_paths(inst.graph, layered, seed=seed)
        current = mask.copy()
        for path in paths:
            found_any = True
            current = apply_augmenting_path(current, path)
        assert_feasible_integral(inst.graph, inst.capacities, current)
        assert int(current.sum()) == int(mask.sum()) + len(paths)
    assert found_any or int(mask.sum()) == optimum_value(inst)


@pytest.mark.parametrize("matcher", ["greedy", "proportional"])
def test_boost_layered_improves(matcher):
    inst = union_of_forests(40, 30, 2, capacity=2, seed=9)
    # Deliberately bad start: empty allocation.
    start = np.zeros(inst.graph.n_edges, dtype=bool)
    res = boost_allocation(
        inst, start, epsilon=0.34, mode="layered", iterations=40,
        layer_matcher=matcher, seed=3,
    )
    assert res.final_size > res.initial_size
    assert_feasible_integral(inst.graph, inst.capacities, res.edge_mask)
    opt = optimum_value(inst)
    assert res.final_size * (res.k + 1) >= opt * res.k * 0.8  # near the target


def test_boost_deterministic_certifies():
    inst = union_of_forests(30, 24, 3, capacity=2, seed=4)
    start = greedy_allocation(inst.graph, inst.capacities, order="random", seed=4)
    eps = 0.5
    res = boost_allocation(inst, start, epsilon=eps, mode="deterministic")
    opt = optimum_value(inst)
    k = k_for_epsilon(eps)
    assert res.k == k
    assert res.final_size * (k + 1) >= opt * k
    assert find_augmenting_path(
        inst.graph, inst.capacities, res.edge_mask, max_length=2 * k - 1
    ) is None


def test_boost_unknown_mode(small_star):
    with pytest.raises(ValueError):
        boost_allocation(
            small_star, np.zeros(small_star.graph.n_edges, dtype=bool),
            0.5, mode="bogus",
        )


def test_k_for_epsilon():
    assert k_for_epsilon(1.0) == 1
    assert k_for_epsilon(0.5) == 2
    assert k_for_epsilon(0.1) == 10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_property_layered_paths_feasible(seed):
    inst = union_of_forests(15, 12, 2, capacity=2, seed=seed)
    mask = greedy_allocation(inst.graph, inst.capacities, order="random", seed=seed)
    layered = build_layered_graph(inst.graph, inst.capacities, mask, k=2, seed=seed)
    paths = find_layered_augmenting_paths(inst.graph, layered, seed=seed)
    current = mask.copy()
    for path in paths:
        current = apply_augmenting_path(current, path)
    assert_feasible_integral(inst.graph, inst.capacities, current)
