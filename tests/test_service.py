"""Durable-session service layer (DESIGN.md §14).

Covers the snapshot/restore machinery (schema, atomicity, torn-file
and stale-schema fallback, certificate re-verification), the
property-based round-trip contract — snapshot → restore → next solve
bit-identical to a never-snapshotted session, across every dynamic
scenario family — and the asyncio front end: request coalescing,
typed admission control on the wire, eviction-to-snapshot with warm
re-admission, and the deterministic seed cursor.  Subprocess
SIGKILL crash recovery lives in tests/test_service_recovery.py.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.scenarios import SCENARIOS
from repro.dynamic.session import DynamicSession
from repro.graphs.generators import erdos_renyi_instance, power_law_instance
from repro.serve.service import AllocationService, ServiceClient
from repro.serve.session import AllocationSession
from repro.serve import instance_hash
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotStore,
    restore_dynamic,
    restore_session,
    snapshot_dynamic,
    snapshot_session,
    verify_exponents,
)


@pytest.fixture()
def instance():
    return power_law_instance(n_left=60, n_right=24, seed=3)


@pytest.fixture()
def other_instance():
    return erdos_renyi_instance(40, 20, 120, seed=9)


def _session(instance, **kwargs) -> AllocationSession:
    kwargs.setdefault("epsilon", 0.2)
    return AllocationSession(instance, **kwargs)


# ---------------------------------------------------------------------------
# Snapshot payload + store
# ---------------------------------------------------------------------------
def test_snapshot_payload_shape(instance):
    session = _session(instance)
    session.solve(seed=7)
    payload = snapshot_session(session, seed_cursor=4)
    assert payload["schema"] == SNAPSHOT_SCHEMA
    assert payload["kind"] == "allocation"
    assert payload["instance_hash"] == instance_hash(instance)
    assert payload["seed_cursor"] == 4
    assert payload["exponents"] is not None
    assert payload["fractional_x"] is not None
    # Pure JSON: the payload must survive a dumps/loads round trip.
    assert json.loads(json.dumps(payload)) == payload


def test_snapshot_restore_roundtrip_bit_identical(instance):
    live = _session(instance)
    live.solve(seed=7)
    payload = snapshot_session(live)
    restored = restore_session(payload)
    assert restored.warm and restored.reason is None
    np.testing.assert_array_equal(
        live.exponents_snapshot(), restored.session.exponents_snapshot()
    )
    # The *next* solve must be bit-identical to the uninterrupted one.
    a = live.solve(seed=11)
    b = restored.session.solve(seed=11)
    np.testing.assert_array_equal(a.edge_mask, b.edge_mask)
    np.testing.assert_array_equal(
        a.mpc.final_exponents, b.mpc.final_exponents
    )
    assert b.meta["warm_start"] is True


def test_restore_preserves_stats_and_reroll(instance):
    live = _session(instance)
    live.solve(seed=7)
    live.solve(seed=8)
    restored = restore_session(snapshot_session(live))
    assert restored.session.stats.as_dict() == live.stats.as_dict()
    # The retained fractional solve survives: re-roll works across
    # the snapshot boundary and stays feasible (validated inside).
    a = live.reroll_rounding(seed=3)
    b = restored.session.reroll_rounding(seed=3)
    np.testing.assert_array_equal(a.edge_mask, b.edge_mask)


def test_restore_cold_session_snapshot(instance):
    payload = snapshot_session(_session(instance))
    restored = restore_session(payload)
    assert not restored.warm
    assert restored.reason == "no warm state"
    assert restored.session.exponents_snapshot() is None


def test_restore_rejects_wrong_schema(instance):
    payload = snapshot_session(_session(instance))
    payload["schema"] = "repro.serve/SessionSnapshot/v0"
    with pytest.raises(ValueError, match="unsupported snapshot schema"):
        restore_session(payload)


def test_restore_bad_exponent_shape_falls_back_cold(instance):
    session = _session(instance)
    session.solve(seed=7)
    payload = snapshot_session(session)
    payload["exponents"] = payload["exponents"][:-3]
    restored = restore_session(payload)
    assert not restored.warm
    assert restored.reason == "exponent shape mismatch"
    # Cold fallback still solves fine.
    assert restored.session.solve(seed=1).size > 0


def test_restore_unverifiable_exponents_fall_back_cold(instance):
    session = _session(instance)
    session.solve(seed=7)
    payload = snapshot_session(session)
    # An absurd vector: valid shape, but wildly spread priorities the
    # dynamics cannot re-certify within the verification cap.
    payload["exponents"] = [i * 10**5 for i in range(instance.graph.n_right)]
    restored = restore_session(payload, verify_round_cap=3)
    assert not restored.warm
    assert restored.reason == "certificate re-verification failed"


def test_verify_exponents_accepts_converged_vector(instance):
    session = _session(instance)
    result = session.solve(seed=7)
    assert verify_exponents(
        instance, result.mpc.final_exponents, session.epsilon
    )


def test_store_atomic_save_and_latest(tmp_path, instance):
    store = SnapshotStore(tmp_path)
    session = _session(instance)
    session.solve(seed=7)
    p1 = store.save(snapshot_session(session, seed_cursor=1))
    session.solve(seed=8)
    p2 = store.save(snapshot_session(session, seed_cursor=2))
    assert p1 != p2 and p1.parent == p2.parent
    assert not list(tmp_path.glob("*.tmp"))
    latest = store.latest(instance_hash(instance))
    assert latest is not None and latest["seed_cursor"] == 2


def test_store_skips_torn_snapshot(tmp_path, instance):
    store = SnapshotStore(tmp_path)
    session = _session(instance)
    session.solve(seed=7)
    store.save(snapshot_session(session, seed_cursor=1))
    good = store.save(snapshot_session(session, seed_cursor=2))
    # Truncate the newest file mid-document: a torn write.
    good.write_text(good.read_text()[: len(good.read_text()) // 2])
    latest = store.latest(instance_hash(instance))
    assert latest is not None and latest["seed_cursor"] == 1


def test_store_skips_stale_schema(tmp_path, instance):
    store = SnapshotStore(tmp_path)
    session = _session(instance)
    session.solve(seed=7)
    store.save(snapshot_session(session, seed_cursor=1))
    newest = store.save(snapshot_session(session, seed_cursor=2))
    stale = json.loads(newest.read_text())
    stale["schema"] = "repro.serve/SessionSnapshot/v999"
    newest.write_text(json.dumps(stale))
    latest = store.latest(instance_hash(instance))
    assert latest is not None and latest["seed_cursor"] == 1


def test_store_all_invalid_yields_none(tmp_path, instance):
    store = SnapshotStore(tmp_path)
    session = _session(instance)
    store.save(snapshot_session(session))
    for path in tmp_path.glob("*.json"):
        path.write_text("{")
    assert store.latest(instance_hash(instance)) is None
    assert store.latest_all() == {}


def test_store_prune_keeps_newest(tmp_path, instance):
    store = SnapshotStore(tmp_path)
    session = _session(instance)
    for cursor in range(5):
        store.save(snapshot_session(session, seed_cursor=cursor))
    removed = store.prune(keep=2)
    assert removed == 3
    assert store.latest(instance_hash(instance))["seed_cursor"] == 4


# ---------------------------------------------------------------------------
# Property-based round trip across every dynamic scenario family
# ---------------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    family=st.sampled_from(sorted(SCENARIOS)),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_dynamic_snapshot_roundtrip_bit_identical(family, seed):
    """snapshot → restore → next delta ≡ never-snapshotted session,
    for every scenario family and arbitrary stream seeds."""
    instance = power_law_instance(n_left=40, n_right=16, seed=seed % 7)
    deltas = SCENARIOS[family](instance, 3, seed=seed)

    def advance(ds, upto):
        ds.resolve(seed=0)
        for delta in deltas[:upto]:
            ds.step(delta, seed=0)

    baseline = DynamicSession(instance, epsilon=0.2)
    advance(baseline, 2)
    snapped = DynamicSession(instance, epsilon=0.2)
    advance(snapped, 2)
    restored = restore_dynamic(snapshot_dynamic(snapped, seed_cursor=2))
    assert restored.seed_cursor == 2
    assert restored.warm

    _, a = baseline.step(deltas[2], seed=0)
    _, b = restored.session.step(deltas[2], seed=0)
    np.testing.assert_array_equal(a.edge_mask, b.edge_mask)
    np.testing.assert_array_equal(a.mpc.final_exponents, b.mpc.final_exponents)
    assert restored.session.stats.deltas_applied == baseline.stats.deltas_applied


def test_dynamic_snapshot_requires_dynamic_kind(instance):
    session = _session(instance)
    payload = snapshot_session(session)  # kind="allocation"
    with pytest.raises(ValueError, match="expected a 'dynamic' snapshot"):
        restore_dynamic(payload)


# ---------------------------------------------------------------------------
# Asyncio front end: coalescing, admission, eviction, seed cursor
# ---------------------------------------------------------------------------
def _run_service(test_coro_factory, **service_kwargs):
    """Drive a service plus client work inside one asyncio.run call."""

    async def main():
        service_kwargs.setdefault("session_kwargs", {"epsilon": 0.2})
        service_kwargs.setdefault("seed", 0)
        store_dir = service_kwargs.pop("store_dir")
        service = AllocationService(store_dir, **service_kwargs)
        await service.start()
        try:
            return await test_coro_factory(service)
        finally:
            await service.stop()

    return asyncio.run(main())


def test_concurrent_identical_requests_coalesce(tmp_path, instance):
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def one():
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                return c.solve(h)  # seedless and identical → coalescable

        responses = await asyncio.gather(
            *(loop.run_in_executor(None, one) for _ in range(4))
        )
        return responses, service.counters

    responses, counters = _run_service(
        scenario, store_dir=tmp_path, max_sessions=2
    )
    # One solve executed, the rest coalesced onto its future...
    assert counters.solves == 1
    assert counters.coalesced == 3
    assert sorted(r["coalesced"] for r in responses) == [False, True, True, True]
    # ...and every client got the same result for one seed position.
    masks = {json.dumps(r["report"]["edge_mask"], sort_keys=True) for r in responses}
    assert len(masks) == 1
    assert len({r["seed_used"] for r in responses}) == 1


def test_distinct_requests_do_not_coalesce(tmp_path, instance):
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def one(seed):
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                return c.solve(h, seed=seed)

        await asyncio.gather(
            *(loop.run_in_executor(None, one, s) for s in (1, 2, 3))
        )
        return service.counters

    counters = _run_service(scenario, store_dir=tmp_path, max_sessions=2)
    assert counters.solves == 3
    assert counters.coalesced == 0


def test_admission_rejected_typed_error_on_wire(tmp_path, instance, other_instance):
    async def scenario(service):
        loop = asyncio.get_running_loop()

        def fill_then_overflow():
            with ServiceClient(service.socket_path) as c:
                assert c.open(instance)["ok"]
                # The sole resident is mid-solve: not evictable.
                service._residents[instance_hash(instance)].busy += 1
                try:
                    return c.open(other_instance)
                finally:
                    service._residents[instance_hash(instance)].busy -= 1

        return await loop.run_in_executor(None, fill_then_overflow)

    response = _run_service(scenario, store_dir=tmp_path, max_sessions=1)
    assert response["ok"] is False
    assert response["error"]["type"] == "admission_rejected"
    assert "busy" in response["error"]["message"]


def test_eviction_to_snapshot_readmission_stays_warm(
    tmp_path, instance, other_instance
):
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def work():
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                first = c.solve(h, seed=7)
                # Admitting a second instance under max_sessions=1
                # evicts the first resident to a snapshot...
                c.open(other_instance)
                assert h not in service._residents
                # ...and re-admission restores it, warm.
                reopened = c.open(instance)
                second = c.solve(h, seed=8)
                return first, reopened, second

        return await loop.run_in_executor(None, work)

    first, reopened, second = _run_service(
        scenario, store_dir=tmp_path, max_sessions=1
    )
    assert first["warm_start"] is False
    assert reopened["restored"] is True and reopened["warm"] is True
    assert second["warm_start"] is True


def test_eviction_matches_uninterrupted_session(tmp_path, instance, other_instance):
    """Evict-then-readmit must not change results: the solve after the
    round trip is bit-identical to one resident session's."""
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def work():
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                c.solve(h, seed=7)
                c.open(other_instance)   # evicts
                c.open(instance)         # restores
                return c.solve(h, seed=11)

        return await loop.run_in_executor(None, work)

    evicted = _run_service(scenario, store_dir=tmp_path, max_sessions=1)
    live = AllocationSession(instance, epsilon=0.2)
    live.solve(seed=7)
    expected = live.solve(seed=11)
    restored_mask = evicted["report"]["edge_mask"]
    np.testing.assert_array_equal(
        np.flatnonzero(expected.edge_mask), np.asarray(restored_mask["true_edges"])
    )


def test_seed_cursor_deterministic_and_persistent(tmp_path, instance):
    h = instance_hash(instance)

    def seeds_from_fresh_store(store_dir, n, checkpoint):
        async def scenario(service):
            loop = asyncio.get_running_loop()

            def work():
                with ServiceClient(service.socket_path) as c:
                    c.open(instance)
                    return [c.solve(h)["seed_used"] for _ in range(n)]

            return await loop.run_in_executor(None, work)

        return _run_service(
            scenario,
            store_dir=store_dir,
            max_sessions=1,
            checkpoint_on_commit=checkpoint,
        )

    # Deterministic: same service seed → same derived seed sequence.
    s1 = seeds_from_fresh_store(tmp_path / "a", 3, False)
    s2 = seeds_from_fresh_store(tmp_path / "b", 3, False)
    assert s1 == s2
    assert len(set(s1)) == 3  # distinct positions → distinct seeds

    # Persistent: a restart continues the cursor, not restarts it.
    first_two = seeds_from_fresh_store(tmp_path / "c", 2, True)
    assert first_two == s1[:2]
    third = seeds_from_fresh_store(tmp_path / "c", 1, True)
    assert third == [s1[2]]


def test_unknown_instance_typed_error(tmp_path):
    async def scenario(service):
        loop = asyncio.get_running_loop()

        def work():
            with ServiceClient(service.socket_path) as c:
                return c.solve("0" * 64)

        return await loop.run_in_executor(None, work)

    response = _run_service(scenario, store_dir=tmp_path)
    assert response["ok"] is False
    assert response["error"]["type"] == "unknown_instance"


def test_bad_request_typed_errors(tmp_path, instance):
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def work():
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                return [
                    c.call({"op": "nope"}),
                    c.call({"op": "open", "instance": "not-an-object"}),
                    c.solve(h, epsilon="high"),
                    c.solve(h, bogus_field=1),
                ]

        return await loop.run_in_executor(None, work)

    responses = _run_service(scenario, store_dir=tmp_path)
    assert all(r["ok"] is False for r in responses)
    assert {r["error"]["type"] for r in responses} == {"bad_request"}


def test_service_stats_and_forced_snapshot(tmp_path, instance):
    h = instance_hash(instance)

    async def scenario(service):
        loop = asyncio.get_running_loop()

        def work():
            with ServiceClient(service.socket_path) as c:
                c.open(instance)
                c.solve(h, seed=1)
                stats = c.stats()
                snap = c.snapshot()
                return stats, snap

        return await loop.run_in_executor(None, work)

    stats, snap = _run_service(scenario, store_dir=tmp_path)
    assert stats["counters"]["solves"] == 1
    resident = stats["residents"][h]
    assert resident["warm"] is True and resident["dirty"] is True
    assert snap == {"ok": True, "checkpointed": 1}


def test_engine_open_service_carries_config(tmp_path):
    from repro.api import Engine

    engine = Engine(epsilon=0.15, seed=42)
    service = engine.open_service(tmp_path, max_sessions=3)
    assert service.max_sessions == 3
    assert service.seed == 42
    assert service.session_kwargs["epsilon"] == 0.15
