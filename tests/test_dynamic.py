"""The dynamic-instance subsystem: deltas, sessions, scenarios, replay.

The contracts under test (DESIGN.md §9):

* delta validity — every applied delta yields an instance that passes
  the library's own validation, with correct surviving-role maps;
* warm continuity — an empty delta leaves the resident session
  bit-identical to a warm re-solve of the unchanged instance, and
  structural deltas remap the retained exponents through the role map;
* degenerate safety — removing every client and zeroing capacities
  (drains) re-solve without errors;
* workspace carry-over — capacity-only deltas keep the workspace
  object resident; structural deltas transplant unchanged CSR sides;
* reproducibility — scenario generators are pure functions of the
  seed, and replays are pure functions of (instance, stream, seed).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.dynamic import (
    SCENARIOS,
    CapacityScale,
    ClientArrival,
    ClientDeparture,
    Compound,
    DemandChange,
    DynamicSession,
    EdgeAdd,
    EdgeRemove,
    ServerArrival,
    ServerDeparture,
    apply_delta,
    delta_from_json,
    delta_to_json,
    remap_exponents,
)
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.graphs.io import save_instance
from repro.kernels import transplant_workspace, workspace_for
from repro.serve import replay_stream
from repro.serve.session import check_integral_feasible


@pytest.fixture
def instance():
    return union_of_forests(40, 30, 3, capacity=2, seed=0)


@pytest.fixture
def dynamic(instance):
    return DynamicSession(instance, epsilon=0.2, boost=False)


# ----------------------------------------------------------------------
# Delta algebra
# ----------------------------------------------------------------------

def test_capacity_scale_shares_graph(instance):
    out = apply_delta(instance, CapacityScale(2.0))
    assert not out.structure_changed
    assert out.instance.graph is instance.graph
    assert np.array_equal(out.instance.capacities, instance.capacities * 2)
    assert np.array_equal(out.right_map, np.arange(instance.n_right))


def test_capacity_scale_floors_at_one(instance):
    out = apply_delta(instance, CapacityScale(0.01))
    assert out.instance.capacities.min() == 1


def test_capacity_scale_subset(instance):
    out = apply_delta(instance, CapacityScale(3.0, vertices=(0, 2)))
    caps = out.instance.capacities
    assert caps[0] == instance.capacities[0] * 3
    assert caps[1] == instance.capacities[1]
    assert caps[2] == instance.capacities[2] * 3


def test_demand_change_sets_absolute(instance):
    out = apply_delta(instance, DemandChange({0: 7, 1: 3}))
    assert not out.structure_changed
    assert out.instance.capacities[0] == 7
    assert out.instance.capacities[1] == 3


def test_demand_change_zero_drains_edges(instance):
    v = int(np.argmax(instance.graph.right_degrees))
    deg = int(instance.graph.right_degrees[v])
    assert deg > 0
    out = apply_delta(instance, DemandChange({v: 0}))
    assert out.structure_changed
    assert out.instance.n_edges == instance.n_edges - deg
    # Ids are preserved: a drain is not a removal.
    assert out.instance.n_right == instance.n_right
    assert int(out.instance.graph.right_degrees[v]) == 0
    assert out.instance.capacities[v] == 1  # pinned, Def. 5 floor
    out.instance.graph.validate()


def test_client_arrival_appends(instance):
    out = apply_delta(instance, ClientArrival(neighbors=((0, 1), (2,))))
    assert out.instance.n_left == instance.n_left + 2
    assert out.instance.n_edges == instance.n_edges + 3
    assert out.instance.arboricity_upper_bound is None  # additions clear it
    assert np.array_equal(out.left_map, np.arange(instance.n_left))
    out.instance.graph.validate()


def test_client_departure_compacts(instance):
    out = apply_delta(instance, ClientDeparture(clients=(0, 3)))
    assert out.instance.n_left == instance.n_left - 2
    assert out.left_map[0] == -1 and out.left_map[3] == -1
    assert out.left_map[1] == 0  # survivors compact in order
    # Removal keeps the certified arboricity bound.
    assert out.instance.arboricity_upper_bound == instance.arboricity_upper_bound
    out.instance.graph.validate()


def test_server_departure_remaps_exponents(instance):
    out = apply_delta(instance, ServerDeparture(servers=(1,)))
    assert out.instance.n_right == instance.n_right - 1
    exps = np.arange(instance.n_right, dtype=np.int64)
    remapped = remap_exponents(exps, out.right_map, out.instance.n_right)
    # Server 0 keeps exponent 0; servers 2.. shift down one slot.
    assert remapped[0] == 0
    assert remapped[1] == 2
    assert remapped[-1] == instance.n_right - 1
    out.instance.graph.validate()


def test_server_arrival(instance):
    out = apply_delta(
        instance, ServerArrival(capacities=(2, 1), neighbors=((0, 1), ()))
    )
    assert out.instance.n_right == instance.n_right + 2
    assert out.instance.capacities[-2] == 2
    assert out.instance.capacities[-1] == 1
    out.instance.graph.validate()


def test_edge_add_remove_round_trip(instance):
    g = instance.graph
    pair = (int(g.edge_u[0]), int(g.edge_v[0]))
    removed = apply_delta(instance, EdgeRemove(edges=(pair,)))
    assert removed.instance.n_edges == instance.n_edges - 1
    back = apply_delta(removed.instance, EdgeAdd(edges=(pair,)))
    assert back.instance.n_edges == instance.n_edges
    assert np.array_equal(back.instance.graph.edge_u, g.edge_u)
    assert np.array_equal(back.instance.graph.edge_v, g.edge_v)


def test_edge_add_duplicate_rejected(instance):
    g = instance.graph
    pair = (int(g.edge_u[0]), int(g.edge_v[0]))
    with pytest.raises(ValueError, match="already exists"):
        apply_delta(instance, EdgeAdd(edges=(pair,)))


def test_edge_remove_missing_rejected(instance):
    missing = None
    for u in range(instance.n_left):
        for v in range(instance.n_right):
            if not instance.graph.has_edge(u, v):
                missing = (u, v)
                break
        if missing:
            break
    with pytest.raises(ValueError, match="does not exist"):
        apply_delta(instance, EdgeRemove(edges=(missing,)))


def test_out_of_range_ids_rejected(instance):
    with pytest.raises(ValueError):
        apply_delta(instance, ClientDeparture(clients=(instance.n_left,)))
    with pytest.raises(ValueError):
        apply_delta(instance, DemandChange({instance.n_right: 2}))
    with pytest.raises(ValueError):
        apply_delta(instance, ClientArrival(neighbors=((instance.n_right,),)))


def test_compound_composes_maps(instance):
    out = apply_delta(
        instance,
        Compound(
            deltas=(
                ClientDeparture(clients=(0,)),
                ClientDeparture(clients=(0,)),  # old client 1, post-compaction
                CapacityScale(2.0),
            )
        ),
    )
    assert out.instance.n_left == instance.n_left - 2
    assert out.left_map[0] == -1 and out.left_map[1] == -1
    assert out.left_map[2] == 0
    assert np.array_equal(out.instance.capacities, instance.capacities * 2)


def test_noop_deltas_return_same_instance(instance):
    for delta in (
        CapacityScale(1.0),
        DemandChange({}),
        DemandChange({0: int(instance.capacities[0])}),
        ClientArrival(neighbors=()),
        ClientDeparture(clients=()),
        EdgeAdd(edges=()),
        Compound(deltas=()),
    ):
        out = apply_delta(instance, delta)
        assert out.noop
        assert out.instance is instance


def test_json_round_trip():
    deltas = [
        CapacityScale(1.5),
        CapacityScale(0.5, vertices=(3, 4)),
        DemandChange({0: 2, 5: 0}),
        ClientArrival(neighbors=((0, 1), (2,))),
        ClientDeparture(clients=(7,)),
        ServerArrival(capacities=(2,), neighbors=((0,),)),
        ServerDeparture(servers=(1, 2)),
        EdgeAdd(edges=((0, 1),)),
        EdgeRemove(edges=((2, 3), (4, 5))),
        Compound(deltas=(EdgeAdd(edges=((0, 0),)), DemandChange({0: 2}))),
    ]
    for delta in deltas:
        obj = json.loads(json.dumps(delta_to_json(delta)))
        assert delta_from_json(obj) == delta


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="unknown delta type"):
        delta_from_json({"type": "warp_speed"})
    with pytest.raises(ValueError, match="unknown fields"):
        delta_from_json({"type": "capacity_scale", "factor": 2.0, "bogus": 1})
    with pytest.raises(ValueError, match="must be a number"):
        delta_from_json({"type": "capacity_scale", "factor": "big"})
    with pytest.raises(ValueError, match=">= 0"):
        delta_from_json({"type": "demand_change", "updates": {"0": -1}})


# ----------------------------------------------------------------------
# Workspace transplant (the kernels-layer incremental rebuild)
# ----------------------------------------------------------------------

def test_transplant_reuses_unchanged_sides(instance):
    parent = workspace_for(instance.graph)
    _ = parent.left.slot_owner  # materialize a lazy invariant
    # Remove then re-add the same edge: both indptrs are unchanged, so
    # both layouts (and their materialized arrays) carry over.
    g = instance.graph
    pair = (int(g.edge_u[0]), int(g.edge_v[0]))
    rebuilt = apply_delta(
        instance, Compound(deltas=(EdgeRemove(edges=(pair,)), EdgeAdd(edges=(pair,))))
    ).instance
    assert rebuilt.graph is not instance.graph
    ws = transplant_workspace(rebuilt.graph, parent)
    assert ws.left is parent.left
    assert ws.right is parent.right
    assert rebuilt.graph.left_layout is parent.left  # graph shares it too
    # The adopted layout's indptr becomes the graph's indptr *object*:
    # the optimized backend only trusts a layout when the identities
    # match, so an equal-but-distinct array would silently demote
    # every segment call on the transplanted graph to the slow path.
    assert rebuilt.graph.left_indptr is parent.left.indptr
    assert rebuilt.graph.right_indptr is parent.right.indptr


def test_transplant_rebuilds_changed_sides(instance):
    parent = workspace_for(instance.graph)
    out = apply_delta(instance, ClientArrival(neighbors=((0, 1),)))
    ws = transplant_workspace(out.instance.graph, parent)
    assert ws.left is not parent.left       # left side grew
    assert ws.right is not parent.right     # right degrees changed
    assert workspace_for(out.instance.graph) is ws


def test_transplant_is_cached(instance):
    parent = workspace_for(instance.graph)
    out = apply_delta(instance, ClientDeparture(clients=(0,)))
    ws1 = transplant_workspace(out.instance.graph, parent)
    ws2 = transplant_workspace(out.instance.graph, parent)
    assert ws1 is ws2
    assert workspace_for(out.instance.graph) is ws1


# ----------------------------------------------------------------------
# DynamicSession: the ISSUE's edge cases
# ----------------------------------------------------------------------

def test_empty_delta_bit_identical_to_warm_resolve(instance):
    a = DynamicSession(instance, epsilon=0.2, boost=False)
    b = DynamicSession(instance, epsilon=0.2, boost=False)
    a.resolve(seed=3)
    b.resolve(seed=3)
    out = a.apply(DemandChange({}))
    assert out.noop
    ra = a.resolve(seed=9)
    rb = b.resolve(seed=9)
    assert np.array_equal(ra.edge_mask, rb.edge_mask)
    assert ra.summary() == rb.summary()
    assert a.stats.noop_deltas == 1


def test_delta_removing_every_client(dynamic):
    dynamic.resolve(seed=0)
    out = dynamic.apply(
        ClientDeparture(clients=tuple(range(dynamic.instance.n_left)))
    )
    assert out.instance.n_left == 0
    assert out.instance.n_edges == 0
    result = dynamic.resolve(seed=1)
    assert result.size == 0
    assert result.mpc.certificate.satisfied
    check_integral_feasible(dynamic.instance, result.edge_mask)


def test_delta_zeroing_capacities_no_divide_by_zero(dynamic):
    dynamic.resolve(seed=0)
    # Zero every capacity: all servers drain, every edge disappears —
    # the proportional rounds must not divide by zero anywhere.
    n_right = dynamic.instance.n_right
    out = dynamic.apply(DemandChange({v: 0 for v in range(n_right)}))
    assert out.instance.n_edges == 0
    assert out.instance.capacities.min() >= 1  # Def. 5 floor
    result = dynamic.resolve(seed=1)
    assert result.size == 0
    assert result.mpc.certificate.satisfied


def test_warm_resolve_after_capacity_patch(dynamic):
    cold = dynamic.resolve(seed=0)
    assert not cold.meta["warm_start"]
    dynamic.apply(CapacityScale(2.0))
    warm = dynamic.resolve(seed=1)
    assert warm.meta["warm_start"]
    assert warm.mpc.certificate.satisfied
    assert dynamic.stats.capacity_patches == 1
    assert dynamic.stats.warm_resolves == 1


def test_warm_resolve_after_structural_delta(dynamic):
    dynamic.resolve(seed=0)
    dynamic.apply(ClientArrival(neighbors=((0, 1), (2, 3))))
    warm = dynamic.resolve(seed=1)
    assert warm.meta["warm_start"]
    assert dynamic.stats.structural_rebuilds == 1


def test_exponents_carried_across_server_departure(dynamic):
    dynamic.resolve(seed=0)
    before = dynamic.session.exponents_snapshot()
    out = dynamic.apply(ServerDeparture(servers=(0,)))
    after = dynamic.session.exponents_snapshot()
    assert after is not None and after.shape == (out.instance.n_right,)
    alive = out.right_map >= 0
    assert np.array_equal(after[out.right_map[alive]], before[alive])


def test_first_resolve_without_prime_is_cold(dynamic):
    dynamic.apply(CapacityScale(2.0))
    result = dynamic.resolve(seed=0)
    assert not result.meta["warm_start"]
    assert dynamic.stats.cold_resolves == 1


def test_scenarios_reproducible_and_valid():
    raw = slow_spread_instance(6, width=4)
    # Raise the capacity profile so the diurnal wave (and its ±10%
    # jitter) has room to move — on unit capacities every wave factor
    # floors back to 1 regardless of seed (the same reason
    # bench_dynamic raises the profile).
    base = raw.with_capacities(raw.capacities * 10, suffix="x10")
    for name, gen in SCENARIOS.items():
        a = gen(base, 5, seed=11)
        b = gen(base, 5, seed=11)
        assert [delta_to_json(x) for x in a] == [delta_to_json(x) for x in b], name
        c = gen(base, 5, seed=12)
        assert [delta_to_json(x) for x in a] != [delta_to_json(x) for x in c], name
        # The stream applies cleanly in order.
        current = base
        for delta in a:
            current = apply_delta(current, delta).instance
            current.graph.validate()


def test_replay_stream_deterministic():
    base = slow_spread_instance(6, width=4)
    deltas = SCENARIOS["rolling_maintenance"](base, 4, seed=0)

    def run():
        dyn = DynamicSession(base, epsilon=0.2, boost=False)
        dyn.resolve(seed=0)
        return replay_stream(dyn, deltas, seed=1)

    a, b = run(), run()
    assert [s.as_row() for s in a] == [s.as_row() for s in b]
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.result.edge_mask, sb.result.edge_mask)
    assert all(s.certified for s in a)
    assert all(s.warm_start for s in a)


def test_replay_stream_requests_align():
    base = slow_spread_instance(4, width=3)
    dyn = DynamicSession(base, epsilon=0.2, boost=False)
    with pytest.raises(ValueError, match="requests for"):
        replay_stream(dyn, [CapacityScale(2.0)], requests=[None, None])


# ----------------------------------------------------------------------
# CLI: the `dynamic` subcommand
# ----------------------------------------------------------------------

@pytest.fixture
def instance_file(tmp_path, instance):
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    return str(path)


def test_cli_dynamic_scenario(instance_file, capsys):
    rc = cli_main([
        "dynamic", "--instance", instance_file,
        "--scenario", "diurnal_wave", "--steps", "3", "--no-boost",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[0])["step"] == "prime"
    rows = [json.loads(line) for line in out[1:]]
    assert len(rows) == 3
    assert all(row["certified"] for row in rows)
    assert all(row["warm_start"] for row in rows)


def test_cli_dynamic_jsonl(tmp_path, instance_file, capsys):
    deltas = tmp_path / "deltas.jsonl"
    deltas.write_text(
        '{"type": "capacity_scale", "factor": 2.0}\n'
        '{"type": "client_arrival", "neighbors": [[0, 1]]}\n'
    )
    rc = cli_main([
        "dynamic", str(deltas), "--instance", instance_file, "--no-boost",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in out[1:]]
    assert [r["delta"] for r in rows] == ["capacity_scale", "client_arrival"]
    assert rows[1]["structure_changed"]


def test_cli_dynamic_deterministic(tmp_path, instance_file, capsys):
    args = [
        "dynamic", "--instance", instance_file,
        "--scenario", "adversarial_churn", "--steps", "3",
        "--seed", "5", "--no-boost",
    ]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_dynamic_malformed_delta(tmp_path, instance_file, capsys):
    deltas = tmp_path / "bad.jsonl"
    deltas.write_text('{"type": "capacity_scale"}\n')
    rc = cli_main(["dynamic", str(deltas), "--instance", instance_file])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_dynamic_unknown_scenario(instance_file, capsys):
    rc = cli_main([
        "dynamic", "--instance", instance_file, "--scenario", "earthquake",
    ])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_dynamic_needs_stream_or_scenario(instance_file, capsys):
    rc = cli_main(["dynamic", "--instance", instance_file])
    assert rc == 2
    assert "deltas.jsonl" in capsys.readouterr().err


def test_cli_dynamic_bad_session_epsilon(instance_file, capsys):
    rc = cli_main([
        "dynamic", "--instance", instance_file,
        "--scenario", "diurnal_wave", "--steps", "2", "--epsilon", "0.9",
    ])
    assert rc == 2
    # A flag problem is reported as one — not blamed on the stream.
    assert "invalid session configuration" in capsys.readouterr().err


def test_cli_dynamic_scenario_instance_mismatch(tmp_path, capsys):
    from repro.graphs.bipartite import build_graph
    from repro.graphs.instances import AllocationInstance

    # No left side at all: flash_crowd generates fine (arrivals create
    # clients), but adversarial_churn needs both sides and must exit 2
    # with a scenario-scoped message instead of a raw traceback.
    servers_only = AllocationInstance(
        graph=build_graph(0, 3, [], []),
        capacities=np.array([1, 1, 1]),
        name="servers_only",
    )
    path = tmp_path / "servers_only.json"
    save_instance(servers_only, path)
    rc = cli_main([
        "dynamic", "--instance", str(path),
        "--scenario", "adversarial_churn", "--steps", "2",
    ])
    assert rc == 2
    assert "cannot generate scenario" in capsys.readouterr().err


def test_cli_dynamic_out_of_range_delta(tmp_path, instance_file, capsys):
    deltas = tmp_path / "oob.jsonl"
    deltas.write_text('{"type": "client_departure", "clients": [9999]}\n')
    rc = cli_main(["dynamic", str(deltas), "--instance", instance_file])
    assert rc == 2
    assert "invalid delta stream" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Trace replay: JSONL event logs <-> (instance, delta stream)
# ----------------------------------------------------------------------

def test_trace_round_trip_bit_identical():
    from repro.dynamic import stream_to_trace, trace_to_stream

    base = slow_spread_instance(6, width=4)
    deltas = SCENARIOS["correlated_flash_crowd"](base, 6, seed=3)
    trace = stream_to_trace(base, deltas)
    inst2, deltas2 = trace_to_stream(trace)
    assert inst2.metadata["family"] == "trace_replay"
    assert stream_to_trace(inst2, deltas2) == trace
    # The parsed stream replays cleanly on the parsed instance.
    current = inst2
    for delta in deltas2:
        current = apply_delta(current, delta).instance
        current.graph.validate()


def test_trace_rejects_malformed():
    from repro.dynamic import trace_to_stream

    with pytest.raises(ValueError, match="empty trace"):
        trace_to_stream([])
    with pytest.raises(ValueError, match="must be 'init'"):
        trace_to_stream([json.dumps({"event": "arrive", "neighbors": []})])
