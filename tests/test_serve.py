"""The serving layer: sessions, warm starts, the batch executor.

The contracts under test (DESIGN.md §8):

* cold-path bit-parity — a session's ``warm=False`` solve equals
  :func:`solve_allocation` exactly (edge masks and audit summaries);
* warm-path validity — warm solves end with a satisfied λ-free
  certificate and a feasible integral allocation, and converge in no
  more rounds than cold solves;
* batch determinism — seed-per-position, snapshot warm bases, and
  thread-count independence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import (
    BoostStage,
    FractionalStage,
    RepairStage,
    RoundingStage,
    default_stages,
    run_pipeline,
    solve_allocation,
)
from repro.core.proportional import ProportionalRun
from repro.graphs.generators import load_balancing_instance, union_of_forests
from repro.serve import AllocationSession, SolveRequest, solve_batch
from repro.utils.rng import spawn

from tests.conftest import assert_feasible_integral


@pytest.fixture
def serving_instance():
    return union_of_forests(120, 90, 3, capacity=2, seed=0)


@pytest.fixture
def session(serving_instance):
    return AllocationSession(serving_instance, epsilon=0.2, boost=False)


# ----------------------------------------------------------------------
# Pipeline stage layer
# ----------------------------------------------------------------------

def test_default_stages_shape():
    names = [s.name for s in default_stages()]
    assert names == ["fractional", "rounding", "repair", "boost"]
    names = [s.name for s in default_stages(repair=False, boost=False)]
    assert names == ["fractional", "rounding"]


def test_run_pipeline_equals_solve_allocation(serving_instance):
    """The stage sequence is the monolith: identical masks + summaries."""
    direct = solve_allocation(serving_instance, 0.2, seed=3, boost=False)
    staged = run_pipeline(
        serving_instance,
        default_stages(boost=False, boost_epsilon=0.25),
        0.2,
        seed=3,
    )
    assert np.array_equal(direct.edge_mask, staged.edge_mask)
    assert direct.summary() == staged.summary()


def test_stage_records_audit_trail(serving_instance):
    res = solve_allocation(serving_instance, 0.2, seed=3)
    assert [r.stage for r in res.stage_records] == [
        "fractional", "rounding", "repair", "boost",
    ]
    assert res.stage_records[0].size is None
    assert res.stage_records[-1].size == res.size
    sizes = [r.size for r in res.stage_records[1:]]
    assert sizes == sorted(sizes)  # stages are monotone


def test_custom_stage_sequence_rounding_only(serving_instance):
    """Declarative configuration: fractional → rounding, nothing else."""
    res = run_pipeline(
        serving_instance,
        (FractionalStage(), RoundingStage(copies=4)),
        0.2,
        seed=5,
    )
    assert res.boosting is None
    assert res.repaired_size == res.rounding.size == res.size
    assert_feasible_integral(
        serving_instance.graph, serving_instance.capacities, res.edge_mask
    )


def test_run_pipeline_requires_rounding(serving_instance):
    with pytest.raises(RuntimeError, match="rounding"):
        run_pipeline(serving_instance, (FractionalStage(),), 0.2, seed=0)
    with pytest.raises(RuntimeError, match="fractional allocation"):
        run_pipeline(serving_instance, (RoundingStage(),), 0.2, seed=0)


def test_stage_stream_slots_are_fixed(serving_instance):
    """Removing repair must not shift boosting's stream: the flags path
    and an explicit stage list agree stage-for-stage."""
    flags = solve_allocation(serving_instance, 0.2, seed=9, repair=False)
    explicit = run_pipeline(
        serving_instance,
        (FractionalStage(), RoundingStage(), BoostStage(epsilon=0.25)),
        0.2,
        seed=9,
    )
    assert np.array_equal(flags.edge_mask, explicit.edge_mask)


# ----------------------------------------------------------------------
# Warm-start plumbing
# ----------------------------------------------------------------------

def test_proportional_warm_start_levels():
    inst = union_of_forests(40, 30, 2, capacity=2, seed=1)
    cold = ProportionalRun(inst.graph, inst.capacities, 0.2)
    cold.run(10)
    warm = ProportionalRun(
        inst.graph, inst.capacities, 0.2, initial_exponents=cold.beta_exp
    )
    assert np.array_equal(warm.beta_exp, cold.beta_exp)
    warm.step()
    # Level sets are relative to the warm base: one round moves every
    # vertex into levels {0, 1, 2} of this run.
    assert set(np.unique(warm.level_indices())) <= {0, 1, 2}
    assert np.array_equal(
        warm.top_level_mask(), warm.beta_exp == cold.beta_exp + 1
    )


def test_initial_exponents_validation():
    inst = union_of_forests(20, 15, 2, capacity=2, seed=2)
    with pytest.raises(ValueError, match="shape"):
        ProportionalRun(
            inst.graph, inst.capacities, 0.2,
            initial_exponents=np.zeros(3, dtype=np.int64),
        )
    with pytest.raises(TypeError, match="integer"):
        ProportionalRun(
            inst.graph, inst.capacities, 0.2,
            initial_exponents=np.zeros(inst.graph.n_right, dtype=np.float64),
        )


# ----------------------------------------------------------------------
# AllocationSession
# ----------------------------------------------------------------------

def test_session_cold_bit_parity(serving_instance, session):
    """warm=False solves are bit-identical to solve_allocation."""
    res = session.solve(SolveRequest(seed=11, warm=False))
    direct = solve_allocation(serving_instance, 0.2, seed=11, boost=False)
    assert np.array_equal(res.edge_mask, direct.edge_mask)
    assert res.summary() == direct.summary()


def test_session_first_solve_is_cold(session):
    res = session.solve(SolveRequest(seed=1))
    assert res.meta["warm_start"] is False
    assert session.stats.cold_solves == 1


def test_session_warm_solve_validated(session):
    cold = session.solve(SolveRequest(seed=1, warm=False))
    warm = session.solve(SolveRequest(seed=2))
    assert warm.meta["warm_start"] is True
    assert warm.mpc.certificate is not None and warm.mpc.certificate.satisfied
    assert_feasible_integral(
        session.instance.graph, session.instance.capacities, warm.edge_mask
    )
    # Warm-started dynamics never need more rounds than the cold solve.
    assert warm.mpc.local_rounds <= cold.mpc.local_rounds
    assert session.stats.warm_solves == 1


def test_session_capacity_update_request(session):
    session.solve(SolveRequest(seed=1))
    warm = session.solve(SolveRequest(seed=2, capacity_updates={0: 5, 3: 1}))
    capacities = session.instance.capacities.copy()
    capacities[0] = 5
    capacities[3] = 1
    assert warm.mpc.certificate.satisfied
    assert_feasible_integral(session.instance.graph, capacities, warm.edge_mask)
    # The base instance is untouched.
    assert session.instance.capacities[0] != 5 or session.instance.capacities[3] != 1


def test_session_epsilon_sweep(session):
    session.solve(SolveRequest(seed=1))
    for eps in (0.1, 0.15, 0.25):
        res = session.solve(SolveRequest(seed=3, epsilon=eps))
        assert res.meta["epsilon"] == eps
        assert res.mpc.certificate.satisfied


def test_session_reset_goes_cold(session):
    session.solve(SolveRequest(seed=1))
    session.reset()
    res = session.solve(SolveRequest(seed=2))
    assert res.meta["warm_start"] is False


def test_session_request_validation():
    with pytest.raises(ValueError, match="not both"):
        SolveRequest(capacities=[1, 2], capacity_updates={0: 1})
    with pytest.raises(ValueError, match="unknown request fields"):
        SolveRequest.from_json({"epsilonn": 0.2})


def test_session_request_from_json_rejects_non_mapping_updates():
    with pytest.raises(ValueError, match="capacity_updates must be an object"):
        SolveRequest.from_json({"capacity_updates": [1, 2]})


def test_session_request_from_json_rejects_non_integer_capacity():
    with pytest.raises(ValueError, match="must be an integer"):
        SolveRequest.from_json({"capacity_updates": {"0": 2.7}})
    with pytest.raises(ValueError, match="must be an integer"):
        SolveRequest.from_json({"capacity_updates": {"0": True}})
    with pytest.raises(ValueError, match=r"capacities\[0\] must be an integer"):
        SolveRequest.from_json({"capacities": [1.9, 2]})
    with pytest.raises(ValueError, match="capacities must be an array"):
        SolveRequest.from_json({"capacities": "12"})


def test_session_request_from_json_rejects_bad_scalars():
    with pytest.raises(ValueError, match="'seed' must be an integer"):
        SolveRequest.from_json({"seed": "abc"})
    with pytest.raises(ValueError, match="'warm' must be a boolean"):
        SolveRequest.from_json({"warm": "no"})
    with pytest.raises(ValueError, match="epsilon"):
        SolveRequest.from_json({"epsilon": 0.9})
    with pytest.raises(ValueError, match="'seed' must be >= 0, got -1"):
        SolveRequest.from_json({"seed": -1})
    with pytest.raises(ValueError, match="'rounding_copies' must be >= 1, got 0"):
        SolveRequest.from_json({"rounding_copies": 0})
    with pytest.raises(ValueError, match=r"capacity_updates\['2'\] must be >= 1"):
        SolveRequest.from_json({"capacity_updates": {"2": 0}})
    with pytest.raises(ValueError, match=r"capacities\[1\] must be >= 1"):
        SolveRequest.from_json({"capacities": [2, 0]})


def test_service_rejects_out_of_range_request_fields(tmp_path, serving_instance):
    """Range errors are the caller's fault: ``bad_request``, no solve."""
    import asyncio

    from repro.serve.service import AllocationService, ServiceClient
    from repro.serve import instance_hash

    h = instance_hash(serving_instance)

    async def run():
        service = AllocationService(tmp_path, session_kwargs={"boost": False})
        await service.start()

        def work():
            with ServiceClient(service.socket_path) as client:
                client.open(serving_instance)
                return [
                    client.solve(h, rounding_copies=0),
                    client.solve(h, seed=-1),
                    client.solve(h, capacity_updates={"2": 0}),
                ]

        try:
            responses = await asyncio.get_running_loop().run_in_executor(None, work)
        finally:
            await service.stop()
        return responses, service.counters.solves

    responses, solves = asyncio.run(run())
    assert solves == 0
    for response in responses:
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"


def test_run_pipeline_rejects_cached_fractional_with_fractional_stage(
    serving_instance,
):
    cold = solve_allocation(serving_instance, 0.2, seed=1, boost=False)
    with pytest.raises(ValueError, match="cached_fractional"):
        run_pipeline(
            serving_instance,
            default_stages(boost=False),
            0.2,
            seed=2,
            cached_fractional=cold.mpc,
        )


def test_session_result_meta_json_serializable(session):
    """meta stays plain scalars (the solved instance is a typed field)."""
    import json

    res = session.solve(SolveRequest(seed=1, capacity_updates={0: 3}))
    json.dumps(res.meta)  # must not raise
    assert res.instance is not None
    assert res.instance.capacities[0] == 3


def test_session_capacity_update_out_of_range(session):
    n_right = session.instance.graph.n_right
    with pytest.raises(ValueError, match="out of range"):
        session.solve(SolveRequest(seed=0, capacity_updates={n_right: 3}))
    with pytest.raises(ValueError, match="out of range"):
        session.solve(SolveRequest(seed=0, capacity_updates={-1: 3}))


def test_session_reroll_rounding(session):
    first = session.solve(SolveRequest(seed=1))
    rerolls = [session.reroll_rounding(seed=s) for s in (5, 5, 6)]
    # Same cached fractional solve, same seed → identical re-roll.
    assert np.array_equal(rerolls[0].edge_mask, rerolls[1].edge_mask)
    assert rerolls[0].mpc is first.mpc
    assert rerolls[0].meta["rounding_reroll"] is True
    assert session.stats.rounding_rerolls == 3
    for rr in rerolls:
        assert_feasible_integral(
            session.instance.graph, session.instance.capacities, rr.edge_mask
        )


def test_session_reroll_uses_last_solved_capacities(session):
    """A re-roll after a capacity-override request must stay feasible
    for the *solved* instance, not the session's base capacities."""
    tightened = {v: 1 for v in range(10)}
    session.solve(SolveRequest(seed=1, capacity_updates=tightened))
    rr = session.reroll_rounding(seed=2)
    g = session.instance.graph
    right_used = np.bincount(g.edge_v[rr.edge_mask], minlength=g.n_right)
    assert np.all(right_used[:10] <= 1)


def test_session_reroll_inherits_last_request_config(session):
    """A re-roll reproduces the last request's effective stage config
    (here rounding_copies) unless explicitly overridden."""
    session.solve(SolveRequest(seed=1, rounding_copies=8))
    inherited = session.reroll_rounding(seed=2)
    explicit = session.reroll_rounding(seed=2, copies=8)
    assert np.array_equal(inherited.edge_mask, explicit.edge_mask)
    assert inherited.rounding.size == explicit.rounding.size


def test_session_reroll_requires_solve(serving_instance):
    fresh = AllocationSession(serving_instance, boost=False)
    with pytest.raises(RuntimeError, match="no completed solve"):
        fresh.reroll_rounding(seed=0)


# ----------------------------------------------------------------------
# solve_batch
# ----------------------------------------------------------------------

def test_solve_batch_empty(session):
    assert solve_batch(session, [], seed=0) == []


def test_solve_batch_seed_per_position(session):
    """Entry i equals a detached solve with spawn(seed, n)[i] from the
    same snapshot — the solve_allocation_many contract, extended."""
    session.solve(SolveRequest(seed=0, warm=False))  # establish warm state
    snapshot = session.exponents_snapshot()
    requests = [SolveRequest(), SolveRequest(capacity_updates={1: 4}), SolveRequest()]
    batch = solve_batch(session, requests, seed=7, commit=False)
    streams = spawn(7, len(requests))
    for i, req in enumerate(requests):
        lone = session.solve_detached(
            req, seed=streams[i], initial_exponents=snapshot.copy()
        )
        assert np.array_equal(batch[i].edge_mask, lone.edge_mask)
        assert batch[i].summary() == lone.summary()


def test_solve_batch_thread_count_independent(session):
    session.solve(SolveRequest(seed=0, warm=False))
    requests = [SolveRequest() for _ in range(8)]
    serial = solve_batch(session, requests, seed=3, max_workers=1, commit=False)
    threaded = solve_batch(session, requests, seed=3, max_workers=4, commit=False)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.edge_mask, b.edge_mask)
        assert a.summary() == b.summary()


def test_solve_batch_commits_last_position(session):
    session.solve(SolveRequest(seed=0, warm=False))
    requests = [SolveRequest(), SolveRequest(capacity_updates={2: 5})]
    results = solve_batch(session, requests, seed=1)
    assert np.array_equal(
        session.exponents_snapshot(), results[-1].mpc.final_exponents
    )


def test_solve_batch_explicit_seed_wins(session):
    session.solve(SolveRequest(seed=0, warm=False))
    snapshot = session.exponents_snapshot()
    [res] = solve_batch(session, [SolveRequest(seed=123)], seed=9, commit=False)
    lone = session.solve_detached(
        SolveRequest(seed=123), initial_exponents=snapshot
    )
    assert np.array_equal(res.edge_mask, lone.edge_mask)


def test_solve_batch_multi_session():
    """Multi-tenant: per-request sessions, results keep request order."""
    inst_a = union_of_forests(60, 45, 2, capacity=2, seed=1)
    inst_b = load_balancing_instance(50, 8, locality=3, seed=2)
    sess_a = AllocationSession(inst_a, boost=False)
    sess_b = AllocationSession(inst_b, boost=False)
    sessions = [sess_a, sess_b, sess_a]
    requests = [SolveRequest() for _ in sessions]
    results = solve_batch(sessions, requests, seed=5, max_workers=3)
    assert len(results) == 3
    assert_feasible_integral(inst_a.graph, inst_a.capacities, results[0].edge_mask)
    assert_feasible_integral(inst_b.graph, inst_b.capacities, results[1].edge_mask)
    assert sess_a.stats.solves == 2  # every executed request is counted
    assert sess_b.stats.solves == 1


def test_solve_batch_session_count_mismatch(session):
    with pytest.raises(ValueError, match="sessions"):
        solve_batch([session], [SolveRequest(), SolveRequest()], seed=0)


def test_solve_stream_primes_then_warms(serving_instance):
    from repro.serve import solve_stream

    fresh = AllocationSession(serving_instance, epsilon=0.2, boost=False)
    results = solve_stream(fresh, [SolveRequest() for _ in range(4)], seed=3)
    assert [r.meta["warm_start"] for r in results] == [False, True, True, True]
    # Position 0 equals a plain session solve with spawn(seed, n)[0].
    other = AllocationSession(serving_instance, epsilon=0.2, boost=False)
    lone = other.solve(SolveRequest(seed=spawn(3, 4)[0]))
    assert np.array_equal(results[0].edge_mask, lone.edge_mask)


def test_solve_stream_empty(session):
    from repro.serve import solve_stream

    assert solve_stream(session, [], seed=0) == []
