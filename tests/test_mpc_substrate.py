"""Tests for the MPC cluster, primitives, exponentiation, cost model.

The cluster, primitive and exponentiation tests run on the shipped
:class:`ColumnarCluster` through its column API.  The last section
tests the per-record oracle's own machinery (``tests/mpc_reference.py``),
which the parity suite relies on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import star_instance, union_of_forests
from repro.mpc import ColumnarCluster, Shipment, SpaceViolation, cluster_for
from repro.mpc.columns import ColumnBatch
from repro.mpc.costmodel import MPCCostModel
from repro.mpc.exponentiation import collect_balls, expected_doubling_rounds
from repro.mpc.primitives import (
    fan_out,
    route_by_key,
    sample_sort,
    tree_broadcast,
    tree_depth,
    tree_reduce_vector,
)
from tests import mpc_reference as ref
from tests.mpc_reference import Machine, MPCCluster, sizeof_words


def keyed(kind: str, values, key: str = "v") -> ColumnBatch:
    return ColumnBatch(kind, {key: np.asarray(values, dtype=np.int64)}, key=key)


def per_machine(cluster: ColumnarCluster, kind: str, col: str = "v") -> list[list]:
    batch, home = cluster.rows(kind)
    return [
        batch.cols[col][home == m].tolist() for m in range(cluster.n_machines)
    ]


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------

def test_space_violation_on_traffic():
    # One 2-word record per machine fits the 3-word budget; funnelling
    # both onto machine 1 breaches it.
    c = ColumnarCluster(2, words_per_machine=3)
    c.load_batches([keyed("r", [1, 2])])
    batch, home = c.rows("r")
    with pytest.raises(SpaceViolation):
        c.exchange_columnar([Shipment(batch, home, np.ones(2, dtype=np.int64))])


def test_cluster_for_sizing():
    c = cluster_for(total_words=1000, n_for_alpha=256, alpha=0.5, slack=4.0)
    assert c.words_per_machine == 64
    assert c.n_machines * c.words_per_machine >= 2 * 1000


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

def test_route_by_key_groups():
    c = ColumnarCluster(4, 1000)
    c.load_batches([
        ColumnBatch(
            "v",
            {"k": np.arange(20, dtype=np.int64), "x": np.arange(20, dtype=np.int64) * 10},
            key="k",
        )
    ])
    route_by_key(c)
    batch, home = c.rows("v")
    assert batch.n_records == 20
    assert np.array_equal(batch.cols["k"] % 4, home)


def test_tree_broadcast_reaches_everyone():
    c = ColumnarCluster(9, 1000)
    c.load_batches([])
    rounds = tree_broadcast(c, (1, 2, 3), tag="cfg")
    assert rounds >= 1
    batch, home = c.rows("cfg")
    assert sorted(home.tolist()) == list(range(9))
    assert all(batch.payload_row(i).tolist() == [1, 2, 3] for i in range(9))


def test_tree_broadcast_single_machine():
    c = ColumnarCluster(1, 100)
    c.load_batches([])
    assert tree_broadcast(c, 7) == 0
    batch, home = c.rows("bcast")
    assert home.tolist() == [0]
    assert batch.payload_row(0).tolist() == [7]


def test_tree_reduce_sums():
    c = ColumnarCluster(5, 1000)
    c.load_batches([keyed("val", range(1, 11))])
    batch, home = c.rows("val")
    partials = np.bincount(home, weights=batch.cols["v"], minlength=5)
    total, rounds = tree_reduce_vector(c, partials.reshape(-1, 1))
    assert total.tolist() == [55.0]
    assert rounds >= 1
    # Original records intact, no partials left behind.
    assert sorted(c.rows("val")[0].cols["v"].tolist()) == list(range(1, 11))
    assert c.kinds() == ["val"]


def test_fan_out_and_depth():
    c = ColumnarCluster(8, 100)
    assert fan_out(c, 10) == 10
    assert tree_depth(8, 2) == 3
    assert tree_depth(1, 2) == 1
    with pytest.raises(ValueError):
        fan_out(c, 0)


def test_fan_out_raises_on_oversized_payload():
    """A payload beyond S cannot be shipped at all: that is a budget
    violation, not a silent fan-out-2 tree."""
    c = ColumnarCluster(8, 100)
    with pytest.raises(SpaceViolation, match="exceeds the per-machine budget"):
        fan_out(c, 101)
    # The boundary payload (exactly S) is shippable, at the documented
    # minimum fan-out of 2.
    assert fan_out(c, 100) == 2


def test_fan_out_nonstrict_records_violation_and_clamps():
    """strict=False clusters record the violation and keep the
    historical clamp, like every other budget check."""
    c = ColumnarCluster(8, 100, strict=False)
    assert fan_out(c, 101) == 2
    assert any("exceeds the per-machine budget" in v for v in c.violations)


def test_fan_out_documented_clamp_when_budget_tight():
    """S // payload == 1 clamps to fan-out 2; the per-round traffic
    check still polices a parent that really sends to two children."""
    c = ColumnarCluster(4, 100)
    assert fan_out(c, 60) == 2
    # Broadcasting a 59-word payload (60 with the tag) through 4
    # machines makes the root send 2 copies = 120 > S in one round:
    # the exchange-time traffic check catches what fan_out clamped.
    c.load_batches([])
    with pytest.raises(SpaceViolation, match="in one round"):
        tree_broadcast(c, tuple(range(59)))


def test_sample_sort_orders_globally():
    rng = np.random.default_rng(3)
    values = rng.permutation(60).tolist()
    c = ColumnarCluster(4, 10_000)
    c.load_batches([keyed("rec", values)])
    rounds = sample_sort(c, seed=1)
    assert rounds >= 3
    chunks = per_machine(c, "rec")
    flat = [v for chunk in chunks for v in chunk]
    assert flat == sorted(values)  # concatenation of machines is sorted
    for chunk in chunks:
        assert chunk == sorted(chunk)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=80), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_property_sample_sort(values, n_machines):
    c = ColumnarCluster(n_machines, 100_000)
    c.load_batches([keyed("rec", values)])
    sample_sort(c, seed=0)
    flat = [v for chunk in per_machine(c, "rec") for v in chunk]
    assert flat == sorted(values)


# ----------------------------------------------------------------------
# exponentiation
# ----------------------------------------------------------------------

def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def test_collect_balls_radius_one():
    c = ColumnarCluster(3, 10_000)
    balls, rounds = collect_balls(c, 5, path_edges(5), radius=1)
    assert rounds == 0
    assert balls[0] == ((0, 1),)
    assert balls[2] == ((1, 2), (2, 3))


def test_collect_balls_radius_two_path():
    c = ColumnarCluster(3, 10_000)
    balls, rounds = collect_balls(c, 6, path_edges(6), radius=2)
    assert rounds == 2  # one doubling join = 2 exchanges
    # Ball of radius 2 around vertex 2: edges touching distance ≤ 1.
    assert balls[2] == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_collect_balls_radius_four_path():
    c = ColumnarCluster(4, 10_000)
    balls, rounds = collect_balls(c, 9, path_edges(9), radius=4)
    assert rounds == 2 * expected_doubling_rounds(4)
    assert balls[4] == tuple((i, i + 1) for i in range(8))


def test_collect_balls_star():
    inst = star_instance(5)
    ea, eb = inst.graph.undirected_edges()
    edges = list(zip(ea.tolist(), eb.tolist()))
    c = ColumnarCluster(3, 10_000)
    balls, _ = collect_balls(c, inst.graph.n_vertices, edges, radius=2)
    # Center (vertex 5) at radius 2 sees the whole star.
    assert len(balls[5]) == 5
    # Each leaf at radius 2 also sees everything (via the center).
    assert len(balls[0]) == 5


def test_collect_balls_validates_radius():
    c = ColumnarCluster(2, 1000)
    with pytest.raises(ValueError):
        collect_balls(c, 3, path_edges(3), radius=0)


def test_collect_balls_matches_bfs_oracle():
    inst = union_of_forests(10, 8, 2, seed=5)
    g = inst.graph
    ea, eb = g.undirected_edges()
    edges = list(zip(ea.tolist(), eb.tolist()))
    c = ColumnarCluster(4, 100_000)
    balls, _ = collect_balls(c, g.n_vertices, edges, radius=3)

    # BFS oracle.
    from collections import defaultdict, deque

    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for center in range(g.n_vertices):
        dist = {center: 0}
        q = deque([center])
        while q:
            v = q.popleft()
            if dist[v] >= 3:
                continue
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        expected = tuple(
            sorted(
                (a, b)
                for a, b in edges
                if a in dist and b in dist and min(dist[a], dist[b]) <= 2
            )
        )
        assert balls[center] == expected, f"ball mismatch at {center}"


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------

def test_cost_model_basics():
    model = MPCCostModel(n=2**16, lam=16, epsilon=0.25, alpha=0.5)
    assert model.tau() >= 1
    assert model.block() >= 1
    assert model.phases() == math.ceil(model.tau() / model.block())
    assert model.rounds_known_lambda() == model.phases() * model.phase_cost().total


def test_cost_model_improves_on_baseline_for_low_lambda():
    model = MPCCostModel(n=2**20, lam=4, epsilon=0.25, alpha=0.5)
    assert model.rounds_known_lambda() < model.baseline_rounds_azm18()


def test_cost_model_guessing_constant_factor():
    for lam in (4, 64, 2**12):
        model = MPCCostModel(n=2**20, lam=lam, epsilon=0.25, alpha=0.5)
        assert model.guessing_overhead() < 6.0


def test_cost_model_space_bound_shape():
    model = MPCCostModel(n=2**12, lam=8, epsilon=0.25, alpha=0.5)
    assert model.words_per_machine() == 2**6
    assert model.predicted_global_words(m_edges=10_000) > 10_000


def test_cost_model_validation():
    with pytest.raises(ValueError):
        MPCCostModel(n=10, lam=2, epsilon=0.25, alpha=1.5)


# ----------------------------------------------------------------------
# the per-record oracle's own machinery (tests/mpc_reference.py)
# ----------------------------------------------------------------------

def test_sizeof_words():
    assert sizeof_words(1) == 1
    assert sizeof_words(2.5) == 1
    assert sizeof_words("tag") == 1
    assert sizeof_words(("edge", 1, 2)) == 3
    assert sizeof_words([("a", 1), ("b", 2)]) == 4
    assert sizeof_words({"k": 1}) == 2
    assert sizeof_words(np.int64(3)) == 1


def test_machine_budget_checks():
    m = Machine(0, capacity_words=3)
    m.store((1, 2))
    assert m.check_budget(strict=True) == []
    m.store((1, 2))
    with pytest.raises(SpaceViolation):
        m.check_budget(strict=True)
    problems = m.check_budget(strict=False)
    assert len(problems) == 1


def test_cluster_load_round_robin():
    c = MPCCluster(3, 100)
    c.load(list(range(10)))
    sizes = [len(m.storage) for m in c.machines]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_exchange_moves_and_accounts():
    c = MPCCluster(2, 100)
    c.load([("x", 1), ("x", 2)], by=lambda r: 0)

    def mapper(mid, records):
        for rec in records:
            yield 1, rec

    c.exchange(mapper)
    assert len(c.machines[0].storage) == 0
    assert len(c.machines[1].storage) == 2
    assert c.rounds_executed == 1
    assert c.round_log[0].total_words_moved == 4
    assert c.machines[1].received_words_this_round == 4


def test_exchange_local_restore_free():
    c = MPCCluster(2, 100)
    c.load([1, 2, 3, 4])

    def keep(mid, records):
        for rec in records:
            yield mid, rec

    c.exchange(keep)
    assert all(m.sent_words_this_round == 0 for m in c.machines)


def test_nonstrict_records_violations():
    c = MPCCluster(2, words_per_machine=3, strict=False)
    c.load([("a", 1), ("b", 2)])

    def flood(mid, records):
        for rec in records:
            yield 1, rec

    c.exchange(flood)
    assert c.violations


def test_tree_reduce_skips_none():
    c = MPCCluster(3, 1000)
    c.load([("a", 5), ("skip", 7)])
    total, _ = ref.tree_reduce(
        c,
        extract=lambda rec: rec[1] if rec[0] == "a" else None,
        combine=lambda a, b: a + b,
        zero=0,
    )
    assert total == 5
