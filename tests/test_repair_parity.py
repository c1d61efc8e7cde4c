"""The round-loop repair against the sequential scan it replaced.

``tests/repair_reference.py`` keeps the per-edge random-order scan.
Both draw the same ``rng.permutation``, so every mask must agree bit
for bit, not statistically: from a rounded start (which depends on the
kernel backend the fractional solve ran on) and from an empty one.
The repair stage's round ledger is checked here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AllocationReport, Engine
from repro.baselines.greedy import greedy_allocation, is_maximal_allocation
from repro.core.local_driver import solve_fractional_fixed_tau
from repro.graphs import build_graph
from repro.graphs.generators import SIZED_FAMILIES, power_law_instance
from repro.rounding.repair import greedy_fill
from repro.rounding.sampling import round_once
from repro.serve import AllocationSession
from repro.serve.snapshot import restore_session, snapshot_session

from tests.repair_reference import greedy_fill as scan_fill


def assert_matches_scan(graph, caps, start, seed) -> tuple[np.ndarray, list[int]]:
    """Repair with both implementations; return the mask and ledger."""
    live_edges: list[int] = []
    got = greedy_fill(graph, caps, start, seed=seed, live_edges=live_edges)
    assert np.array_equal(got, scan_fill(graph, caps, start, seed=seed))
    assert is_maximal_allocation(graph, caps, got)
    assert np.all(got[start])
    # Each round accepts at least the earliest live edge.
    assert all(a > b for a, b in zip(live_edges, live_edges[1:]))
    return got, live_edges


@pytest.mark.parametrize("family", sorted(SIZED_FAMILIES))
def test_round_loop_matches_the_scan_on_every_sized_family(family):
    for n in (60, 400):
        for seed in range(3):
            inst = SIZED_FAMILIES[family](n, seed=seed)
            g, caps = inst.graph, inst.capacities
            frac = solve_fractional_fixed_tau(inst, 0.2).allocation
            rounded = round_once(g, caps, frac, seed=seed).edge_mask
            assert_matches_scan(g, caps, rounded, seed)
            empty = np.zeros(g.n_edges, dtype=bool)
            filled, _ = assert_matches_scan(g, caps, empty, seed)
            # The random-order greedy baseline is repair from nothing.
            assert np.array_equal(
                greedy_allocation(g, caps, order="random", seed=seed), filled
            )


@st.composite
def repair_cases(draw):
    """A small graph, capacities 1–4, a random feasible start mask and
    a seed.  Isolated vertices and capacities above degree come up
    naturally at these sizes."""
    n_left = draw(st.integers(1, 7))
    n_right = draw(st.integers(1, 5))
    universe = [(u, v) for u in range(n_left) for v in range(n_right)]
    edges = draw(st.lists(st.sampled_from(universe), max_size=20, unique=True))
    g = build_graph(n_left, n_right, [u for u, _ in edges], [v for _, v in edges])
    caps = np.asarray(
        draw(st.lists(st.integers(1, 4), min_size=n_right, max_size=n_right)),
        dtype=np.int64,
    )
    wanted = draw(st.lists(st.booleans(), min_size=g.n_edges, max_size=g.n_edges))
    start = np.zeros(g.n_edges, dtype=bool)
    left_used, right_used = set(), np.zeros(n_right, dtype=np.int64)
    for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
        if wanted[e] and u not in left_used and right_used[v] < caps[v]:
            start[e] = True
            left_used.add(u)
            right_used[v] += 1
    return g, caps, start, draw(st.integers(0, 2**32 - 1))


@given(repair_cases())
@settings(max_examples=150, deadline=None)
def test_property_round_loop_matches_the_scan(case):
    assert_matches_scan(*case)


# (graph, capacities, start mask, rounds the repair must take)
EDGE_CASES = {
    "no_edges": (build_graph(3, 2, [], []), [1, 1], [], 0),
    "no_candidates": (
        build_graph(3, 3, [0, 1, 2], [0, 1, 2]),
        [1, 1, 1],
        [True] * 3,
        0,
    ),
    "every_right_vertex_full": (
        build_graph(4, 2, [0, 1, 2, 3, 3], [0, 0, 1, 0, 1]),
        [2, 1],
        [True, True, True, False, False],
        0,
    ),
    "isolated_vertices": (
        build_graph(5, 4, [1, 1, 3], [0, 2, 2]),
        [1, 1, 1, 1],
        [False] * 3,
        None,
    ),
    "capacity_above_degree": (
        build_graph(3, 2, [0, 1, 2, 2], [0, 0, 0, 1]),
        [4, 3],
        [False] * 4,
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_round_loop_edge_cases(name):
    g, caps, start, rounds = EDGE_CASES[name]
    caps = np.asarray(caps, dtype=np.int64)
    start = np.asarray(start, dtype=bool)
    for seed in range(8):
        _, live_edges = assert_matches_scan(g, caps, start, seed)
        if rounds is not None:
            assert len(live_edges) == rounds


def _repair_detail(stage_records) -> dict:
    (record,) = [r for r in stage_records if r.stage == "repair"]
    return record.detail


def test_repair_record_carries_the_round_ledger():
    inst = power_law_instance(n_left=300, n_right=60, seed=1)
    report = Engine(boost=False, seed=0).solve(inst)
    detail = _repair_detail(report.stage_records)
    live_edges = detail["live_edges"]
    assert detail["rounds"] == len(live_edges) >= 1
    assert all(type(c) is int for c in live_edges)
    assert all(a > b for a, b in zip(live_edges, live_edges[1:]))
    assert detail["added"] == report.result.repaired_size - report.result.rounding.size

    detached = AllocationReport.from_json(report.to_json())
    assert _repair_detail(detached.stage_records) == detail

    session = AllocationSession(inst, epsilon=0.2, boost=False)
    solved = session.solve(seed=4)
    restored = restore_session(snapshot_session(session)).session
    assert _repair_detail(restored.last_result.stage_records) == _repair_detail(
        solved.stage_records
    )
