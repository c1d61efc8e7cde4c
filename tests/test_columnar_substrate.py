"""Parity suite: the columnar MPC cluster vs the per-record oracle
(DESIGN.md §7.4).

The contract under test: the shipped :class:`ColumnarCluster` and the
per-record cluster in ``tests/mpc_reference.py`` execute the same
communication pattern, so round ledgers, per-machine word counters,
budget-violation strings, and numeric trajectories are bit-identical.
Plus dtype word accounting and the edge cases (empty exchanges,
single-machine clusters, zero-record routes, exact-budget batches,
degree-0 vertices).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import skew_frontier_instance, union_of_forests
from repro.mpc import SpaceViolation, cluster_for
from repro.mpc.columnar import ColumnarCluster, Shipment
from repro.mpc.columns import ColumnBatch, dtype_words, ragged_from_rows
from repro.mpc.exponentiation import collect_balls
from repro.mpc.primitives import (
    route_by_key,
    sample_sort,
    tree_broadcast,
    tree_reduce_vector,
)
from repro.mpc.simulation import simulate_local_rounds_on_cluster
from tests import mpc_reference as ref
from tests.mpc_reference import MPCCluster, per_record_driver, sizeof_words


def ledger_of(cluster) -> list[tuple]:
    return [
        (r.round_index, r.label, r.total_words_moved, r.max_sent, r.max_received)
        for r in cluster.round_log
    ]


def machine_counters(cluster) -> list[tuple]:
    return [
        (
            m.stored_words,
            m.peak_stored_words,
            m.sent_words_this_round,
            m.received_words_this_round,
            m.peak_traffic_words,
        )
        for m in cluster.machines
    ]


def pair(n_machines=4, words=10_000, strict=True):
    return (
        MPCCluster(n_machines, words, strict=strict),
        ColumnarCluster(n_machines, words, strict=strict),
    )


# ----------------------------------------------------------------------
# dtype word accounting
# ----------------------------------------------------------------------

def test_dtype_words_rounds_up_subword_scalars():
    assert dtype_words(np.int64) == 1
    assert dtype_words(np.float64) == 1
    assert dtype_words(np.bool_) == 1
    assert dtype_words(np.int32) == 1


def test_batch_words_match_sizeof_words_fixed():
    # ("edge", u, v) → 3 words, priced from dtypes, not traversal.
    batch = ColumnBatch(
        "edge", {"u": np.arange(5, dtype=np.int64), "v": np.arange(5, dtype=np.int64)}
    )
    per = batch.words_per_record()
    assert per.tolist() == [sizeof_words(("edge", int(i), int(i))) for i in range(5)]
    # ("cvert", v, flag, alloc) → 4 words; bool still costs a word.
    batch = ColumnBatch(
        "cvert",
        {
            "v": np.arange(3, dtype=np.int64),
            "flag": np.array([True, False, True]),
            "alloc": np.zeros(3),
        },
    )
    assert batch.words_per_record().tolist() == [
        sizeof_words(("cvert", v, bool(v % 2 == 0), 0.0)) for v in range(3)
    ]


def test_batch_words_match_sizeof_words_ragged():
    rows = [((0, 1), (1, 2)), (), ((3, 4),)]
    offsets, payload = ragged_from_rows(
        [[c for p in row for c in p] for row in rows]
    )
    batch = ColumnBatch(
        "ball", {"v": np.arange(3, dtype=np.int64)}, offsets, payload
    )
    assert batch.words_per_record().tolist() == [
        sizeof_words(("ball", i, rows[i])) for i in range(3)
    ]


def test_batch_take_and_concat_ragged():
    offsets, payload = ragged_from_rows([[1, 2], [], [3, 4, 5]])
    batch = ColumnBatch("k", {"v": np.arange(3, dtype=np.int64)}, offsets, payload)
    taken = batch.take(np.array([2, 0]))
    assert taken.payload_row(0).tolist() == [3, 4, 5]
    assert taken.payload_row(1).tolist() == [1, 2]
    both = ColumnBatch.concat([batch, taken])
    assert both.n_records == 5
    assert both.total_words() == batch.total_words() + taken.total_words()


def test_batch_validation():
    with pytest.raises(ValueError, match="ragged column lengths"):
        ColumnBatch("k", {"a": np.zeros(2), "b": np.zeros(3)})
    with pytest.raises(ValueError, match="at least one column"):
        ColumnBatch("k", {})
    with pytest.raises(ValueError, match="key column"):
        ColumnBatch("k", {"a": np.zeros(2)}, key="missing")


# ----------------------------------------------------------------------
# exchange-level parity and edge cases
# ----------------------------------------------------------------------

def load_pair(co, cc, n=12):
    co.load([("rec", i, i * 10) for i in range(n)])
    cc.load_batches(
        [
            ColumnBatch(
                "rec",
                {
                    "k": np.arange(n, dtype=np.int64),
                    "val": np.arange(n, dtype=np.int64) * 10,
                },
                key="k",
            )
        ]
    )


def test_route_by_key_parity():
    co, cc = pair()
    load_pair(co, cc)
    h_o = ref.route_by_key(co, key_fn=lambda rec: rec[1], return_histogram=True)
    h_c = route_by_key(cc, return_histogram=True)
    assert np.array_equal(h_o, h_c)
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)
    batch, home = cc.rows("rec")
    assert np.array_equal(batch.cols["k"] % 4, home)


def test_columnar_rejects_callable_keys():
    cc = ColumnarCluster(2, 1000)
    cc.load_batches([ColumnBatch("r", {"k": np.arange(3, dtype=np.int64)}, key="k")])
    with pytest.raises(TypeError, match="column name"):
        route_by_key(cc, key_fn=lambda rec: rec[1])
    with pytest.raises(TypeError, match="column name"):
        sample_sort(cc, key_fn=lambda rec: rec[1])


def test_zero_record_route_by_key_both_substrates():
    co, cc = pair()
    co.load([])
    cc.load_batches([])
    ref.route_by_key(co, key_fn=lambda rec: rec[1])
    route_by_key(cc)
    assert ledger_of(co) == ledger_of(cc)
    assert co.rounds_executed == cc.rounds_executed == 1
    assert ledger_of(cc)[0][2:] == (0, 0, 0)


def test_empty_exchange_on_empty_kind():
    # A kind whose batch has zero records persists as an empty kind.
    cc = ColumnarCluster(3, 100)
    cc.load_batches(
        [ColumnBatch("rec", {"k": np.empty(0, dtype=np.int64)}, key="k")]
    )
    route_by_key(cc)
    assert cc.has_kind("rec")
    assert cc.rows("rec")[0].n_records == 0
    assert cc.total_stored_words() == 0


def test_single_machine_cluster_both_substrates():
    co, cc = pair(n_machines=1, words=1000)
    load_pair(co, cc, n=5)
    ref.route_by_key(co, key_fn=lambda rec: rec[1])
    route_by_key(cc)
    assert ref.tree_broadcast(co, (1.0, 2.0)) == 0
    assert tree_broadcast(cc, (1.0, 2.0)) == 0
    assert ledger_of(co) == ledger_of(cc)
    total_o, r_o = ref.tree_reduce(
        co, lambda rec: rec[2] if rec[0] == "rec" else None, lambda a, b: a + b, 0
    )
    total_c, r_c = tree_reduce_vector(
        cc,
        np.array([[float(cc.rows("rec")[0].cols["val"].sum())]]),
    )
    assert (total_o, r_o) == (int(total_c[0]), r_c) == (100, 0)


def test_exact_budget_batch_is_legal_one_word_over_raises():
    # 5 records × 3 words on one machine: exactly S=15 is fine...
    for sub in ("object", "columnar"):
        co = MPCCluster(2, 15) if sub == "object" else ColumnarCluster(2, 15)
        if sub == "object":
            co.load([("r", i, 0) for i in range(5)], by=lambda rec: 0)
            assert co.machines[0].stored_words == 15
        else:
            co.load_batches(
                [
                    ColumnBatch(
                        "r",
                        {
                            "k": np.arange(5, dtype=np.int64),
                            "x": np.zeros(5, dtype=np.int64),
                        },
                        key="k",
                    )
                ],
                home=[np.zeros(5, dtype=np.int64)],
            )
            assert co.machines[0].stored_words == 15
        assert co.violations == []
    # ... and one more word over the budget raises on both substrates.
    co = MPCCluster(2, 14)
    with pytest.raises(SpaceViolation):
        co.load([("r", i, 0) for i in range(5)], by=lambda rec: 0)
    cc = ColumnarCluster(2, 14)
    with pytest.raises(SpaceViolation):
        cc.load_batches(
            [
                ColumnBatch(
                    "r",
                    {"k": np.arange(5, dtype=np.int64), "x": np.zeros(5, dtype=np.int64)},
                    key="k",
                )
            ],
            home=[np.zeros(5, dtype=np.int64)],
        )
    # Identical violation strings in non-strict mode.
    pair_clusters = pair(n_machines=2, words=14, strict=False)
    pair_clusters[0].load([("r", i, 0) for i in range(5)], by=lambda rec: 0)
    pair_clusters[1].load_batches(
        [
            ColumnBatch(
                "r",
                {"k": np.arange(5, dtype=np.int64), "x": np.zeros(5, dtype=np.int64)},
                key="k",
            )
        ],
        home=[np.zeros(5, dtype=np.int64)],
    )
    assert pair_clusters[0].violations == pair_clusters[1].violations != []


def test_traffic_violation_parity_strings():
    co, cc = pair(n_machines=2, words=6, strict=False)
    co.load([("a", 1, 0), ("b", 1, 0)])
    cc.load_batches(
        [
            ColumnBatch(
                "rec",
                {"k": np.ones(2, dtype=np.int64), "x": np.zeros(2, dtype=np.int64)},
                key="k",
            )
        ]
    )
    # Funnel everything onto machine 1: 3 words sent by machine 0 is
    # fine, but storage of 6 is fine too — tighten traffic via words=6:
    # machine 0 ships one 3-word record (ok), then overload via repeat.
    def flood(mid, records):
        for rec in records:
            yield 1, rec

    co.exchange(flood)
    batch, home = cc.rows("rec")
    cc.exchange_columnar(
        [Shipment(batch, home, np.ones(batch.n_records, dtype=np.int64))]
    )
    assert ledger_of(co) == ledger_of(cc)
    assert co.violations == cc.violations


def test_out_of_range_destination_raises():
    cc = ColumnarCluster(2, 100)
    cc.load_batches([ColumnBatch("r", {"k": np.arange(2, dtype=np.int64)}, key="k")])
    batch, home = cc.rows("r")
    with pytest.raises(ValueError, match="out of range"):
        cc.exchange_columnar([Shipment(batch, home, np.array([0, 5]))])


# ----------------------------------------------------------------------
# primitives parity
# ----------------------------------------------------------------------

def test_tree_broadcast_parity():
    co, cc = pair(n_machines=9, words=1000)
    co.load([])
    cc.load_batches([])
    r_o = ref.tree_broadcast(co, (1.0, 2.0, 3.0), tag="cfg")
    r_c = tree_broadcast(cc, (1.0, 2.0, 3.0), tag="cfg")
    assert r_o == r_c >= 1
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)
    # Every machine holds the payload on both substrates.
    assert all(("cfg", (1.0, 2.0, 3.0)) in m.storage for m in co.machines)
    batch, home = cc.rows("cfg")
    assert sorted(home.tolist()) == list(range(9))
    assert all(batch.payload_row(i).tolist() == [1.0, 2.0, 3.0] for i in range(9))


def test_tree_reduce_parity_with_vector():
    co, cc = pair(n_machines=5, words=1000)
    vals = list(range(1, 11))
    co.load([("val", v) for v in vals])
    cc.load_batches(
        [ColumnBatch("val", {"v": np.asarray(vals, dtype=np.int64)}, key="v")]
    )
    total_o, r_o = ref.tree_reduce(
        co, extract=lambda rec: rec[1], combine=lambda a, b: a + b, zero=0
    )
    # Columnar: per-machine partials computed vectorized, same fold tree.
    batch, home = cc.rows("val")
    partials = np.bincount(home, weights=batch.cols["v"], minlength=5).reshape(-1, 1)
    total_c, r_c = tree_reduce_vector(cc, partials)
    assert total_o == int(total_c[0]) == 55
    assert r_o == r_c
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)
    assert not cc.has_kind("reduce")


def test_tree_reduce_float_fold_order_parity():
    # 40 machines at fan-out 2 give a six-level tree, so parents merge
    # several float partials: the fold order must be the oracle's.  A
    # 4-word budget forces fan-out 2 and overflows storage, so both
    # clusters run non-strict and must record the same violations.
    rng = np.random.default_rng(11)
    vals = (rng.random(200) * 10.0 ** rng.integers(-8, 8, 200)).tolist()
    co, cc = pair(n_machines=40, words=4, strict=False)
    co.load([("val", v) for v in vals])
    cc.load_batches([ColumnBatch("val", {"v": np.asarray(vals)})])
    total_o, r_o = ref.tree_reduce(
        co, extract=lambda rec: rec[1], combine=lambda a, b: a + b, zero=0.0
    )
    batch, home = cc.rows("val")
    partials = np.bincount(home, weights=batch.cols["v"], minlength=40)
    total_c, r_c = tree_reduce_vector(cc, partials.reshape(-1, 1))
    assert r_o == r_c >= 5
    assert total_o == total_c[0]
    assert ledger_of(co) == ledger_of(cc)
    assert co.violations == cc.violations != []


def test_tree_reduce_vector_requires_columnar_and_shape():
    co, cc = pair(n_machines=3, words=100)
    with pytest.raises(TypeError, match="tree_reduce_vector"):
        ref.tree_reduce(cc, lambda r: r, lambda a, b: a, 0)
    with pytest.raises(ValueError, match="partial rows"):
        tree_reduce_vector(cc, np.zeros((2, 1)))


def test_sample_sort_parity():
    rng = np.random.default_rng(3)
    values = rng.permutation(60).tolist()
    co, cc = pair(n_machines=4, words=10_000)
    co.load([("rec", v) for v in values])
    cc.load_batches(
        [ColumnBatch("rec", {"v": np.asarray(values, dtype=np.int64)}, key="v")]
    )
    r_o = ref.sample_sort(co, key_fn=lambda rec: rec[1], seed=1)
    r_c = sample_sort(cc, seed=1)
    assert r_o == r_c >= 3
    assert ledger_of(co) == ledger_of(cc)
    flat_o = [rec[1] for m in co.machines for rec in m.storage]
    batch, home = cc.rows("rec")
    assert flat_o == batch.cols["v"].tolist() == sorted(values)
    assert np.all(home[:-1] <= home[1:])


@given(st.lists(st.integers(0, 1000), min_size=0, max_size=60), st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_property_sample_sort_parity(values, n_machines):
    co = MPCCluster(n_machines, 100_000)
    cc = ColumnarCluster(n_machines, 100_000)
    co.load([("rec", v) for v in values])
    cc.load_batches(
        [ColumnBatch("rec", {"v": np.asarray(values, dtype=np.int64)}, key="v")]
    )
    ref.sample_sort(co, key_fn=lambda rec: rec[1], seed=0)
    sample_sort(cc, seed=0)
    assert ledger_of(co) == ledger_of(cc)
    assert [rec[1] for m in co.machines for rec in m.storage] == sorted(values)
    assert cc.rows("rec")[0].cols["v"].tolist() == sorted(values)


# ----------------------------------------------------------------------
# exponentiation parity (incl. degree-0 vertices)
# ----------------------------------------------------------------------

def test_collect_balls_parity_with_degree_zero_vertices():
    # Vertices 5 and 6 are isolated; the path 0-1-2-3-4 is connected.
    edges = [(i, i + 1) for i in range(4)]
    co, cc = pair(n_machines=3, words=10_000)
    balls_o, r_o = ref.collect_balls(co, 7, edges, radius=2)
    balls_c, r_c = collect_balls(cc, 7, edges, radius=2)
    assert r_o == r_c == 2
    assert balls_o == balls_c
    assert balls_c[5] == () and balls_c[6] == ()
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)


def test_collect_balls_parity_random_graph():
    inst = union_of_forests(10, 8, 2, seed=5)
    ea, eb = inst.graph.undirected_edges()
    edges = list(zip(ea.tolist(), eb.tolist()))
    co, cc = pair(n_machines=4, words=100_000)
    balls_o, r_o = ref.collect_balls(co, inst.graph.n_vertices, edges, radius=4)
    balls_c, r_c = collect_balls(cc, inst.graph.n_vertices, edges, radius=4)
    assert balls_o == balls_c
    assert r_o == r_c
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)


def test_collect_balls_parity_truncating_radius():
    # Radius 3 is not a power of two: the last join overshoots and the
    # truncation to the target radius decides which edges stay.
    inst = union_of_forests(12, 10, 2, seed=9)
    ea, eb = inst.graph.undirected_edges()
    edges = list(zip(ea.tolist(), eb.tolist()))
    co, cc = pair(n_machines=5, words=100_000)
    balls_o, r_o = ref.collect_balls(co, inst.graph.n_vertices, edges, radius=3)
    balls_c, r_c = collect_balls(cc, inst.graph.n_vertices, edges, radius=3)
    assert balls_o == balls_c
    assert r_o == r_c == 4
    assert ledger_of(co) == ledger_of(cc)


def test_collect_balls_custom_owner_parity():
    edges = [(0, 1), (1, 2), (2, 3)]
    co, cc = pair(n_machines=3, words=10_000)
    owner = lambda v: (v * 2 + 1) % 3
    balls_o, _ = ref.collect_balls(co, 4, edges, radius=2, owner_of_vertex=owner)
    balls_c, _ = collect_balls(cc, 4, edges, radius=2, owner_of_vertex=owner)
    assert balls_o == balls_c
    assert ledger_of(co) == ledger_of(cc)


# ----------------------------------------------------------------------
# direct simulation and driver parity
# ----------------------------------------------------------------------

def test_direct_simulation_bitwise_parity():
    inst = union_of_forests(20, 16, 3, capacity=2, seed=7)
    co = MPCCluster(9, 8192)
    cc = ColumnarCluster(9, 8192)
    res_o = ref.simulate_local_rounds_on_cluster(
        inst.graph, inst.capacities, 0.2, tau=6, cluster=co
    )
    res_c = simulate_local_rounds_on_cluster(
        inst.graph, inst.capacities, 0.2, tau=6, cluster=cc
    )
    assert np.array_equal(res_o.beta_exp, res_c.beta_exp)
    assert np.array_equal(res_o.alloc, res_c.alloc)  # bit-identical
    assert res_o.peak_machine_words == res_c.peak_machine_words
    assert res_o.violations == res_c.violations == []
    assert ledger_of(co) == ledger_of(cc)
    assert machine_counters(co) == machine_counters(cc)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
@settings(max_examples=8, deadline=None)
def test_property_direct_simulation_parity(seed, tau):
    inst = union_of_forests(10, 8, 2, capacity=2, seed=seed)
    kwargs = dict(space_slack=1024.0)
    res_o = ref.simulate_local_rounds_on_cluster(
        inst.graph, inst.capacities, 0.3, tau=tau, **kwargs
    )
    res_c = simulate_local_rounds_on_cluster(
        inst.graph, inst.capacities, 0.3, tau=tau, **kwargs
    )
    assert np.array_equal(res_o.beta_exp, res_c.beta_exp)
    assert np.array_equal(res_o.alloc, res_c.alloc)
    assert res_o.mpc_rounds == res_c.mpc_rounds


def test_direct_simulation_parity_at_bench_scale():
    # 1,174 edges on 20 machines of S = 64·√400 = 1,280 words, τ = 8.
    inst = union_of_forests(200, 200, 3, capacity=2, seed=0)
    g = inst.graph
    sizing = dict(
        total_words=8 * (g.n_edges + g.n_vertices) + 16,
        n_for_alpha=g.n_vertices, alpha=0.5, slack=64.0,
    )
    co, cc = ref.cluster_for(**sizing), cluster_for(**sizing)
    assert co.n_machines == cc.n_machines == 20
    res_o = ref.simulate_local_rounds_on_cluster(
        g, inst.capacities, 0.2, tau=8, cluster=co
    )
    res_c = simulate_local_rounds_on_cluster(
        g, inst.capacities, 0.2, tau=8, cluster=cc
    )
    assert np.array_equal(res_o.beta_exp, res_c.beta_exp)
    assert np.array_equal(res_o.alloc, res_c.alloc)
    assert res_o.violations == res_c.violations == []
    assert ledger_of(co) == ledger_of(cc)


def test_faithful_driver_parity_at_bench_scale():
    inst = union_of_forests(48, 48, 2, capacity=2, seed=0)
    kwargs = dict(lam=2, mode="faithful", seed=0, sample_budget=6, space_slack=1024.0)
    with per_record_driver():
        res_o = solve_allocation_mpc(inst, 0.2, **kwargs)
    res_c = solve_allocation_mpc(inst, 0.2, **kwargs)
    assert res_o.ledger.by_category == res_c.ledger.by_category
    assert res_o.ledger.peak_machine_words == res_c.ledger.peak_machine_words
    assert res_o.ledger.trajectory == res_c.ledger.trajectory
    assert res_o.ledger.violations == res_c.ledger.violations == []
    assert res_o.certificate == res_c.certificate
    assert np.array_equal(res_o.allocation.x, res_c.allocation.x)


def test_faithful_driver_parity_across_machines():
    # The other driver-level instances fit on one machine, where no
    # exchange moves a word; at n = 256 the fixed S = 16,384 words
    # needs two machines.
    inst = skew_frontier_instance(256, seed=0)
    kwargs = dict(
        lam=4, mode="faithful", seed=0, sample_budget=6, block_override=1,
        space_slack=16384 / inst.graph.n_vertices ** 0.5,
        budget_policy="adaptive",
    )
    with per_record_driver():
        res_o = solve_allocation_mpc(inst, 0.2, **kwargs)
    res_c = solve_allocation_mpc(inst, 0.2, **kwargs)
    assert sum(res_c.ledger.trajectory[0]["words_moved"].values()) > 0
    assert res_o.ledger.by_category == res_c.ledger.by_category
    assert res_o.ledger.trajectory == res_c.ledger.trajectory
    assert res_o.certificate == res_c.certificate
    assert np.array_equal(res_o.allocation.x, res_c.allocation.x)


def test_faithful_driver_substrate_parity():
    inst = union_of_forests(14, 12, 2, capacity=2, seed=5)
    kwargs = dict(lam=2, mode="faithful", seed=123, sample_budget=6, space_slack=512.0)
    with per_record_driver():
        res_o = solve_allocation_mpc(inst, 0.2, **kwargs)
    res_c = solve_allocation_mpc(inst, 0.2, **kwargs)
    assert res_o.ledger.by_category == res_c.ledger.by_category
    assert res_o.mpc_rounds == res_c.mpc_rounds
    assert res_o.ledger.phases == res_c.ledger.phases
    assert res_o.ledger.peak_machine_words == res_c.ledger.peak_machine_words
    assert res_o.ledger.peak_global_words == res_c.ledger.peak_global_words
    assert res_o.ledger.peak_routed_records == res_c.ledger.peak_routed_records
    assert res_o.ledger.violations == res_c.ledger.violations == []
    assert res_o.certificate == res_c.certificate  # incl. float upper_mass
    assert np.array_equal(res_o.allocation.x, res_c.allocation.x)
    assert res_o.match_weight == res_c.match_weight
