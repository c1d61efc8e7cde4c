"""Multi-process sharded serving (DESIGN.md §12).

What is covered here:

* the routing rule (stable content hash: metadata-blind, capacity-
  sensitive, same instance → same shard);
* the process-boundary pickle contracts (``SolverConfig``,
  ``AllocationReport`` live→detached, ``SolveRequest``, a solved
  instance);
* the cross-executor determinism matrix: one request stream through
  the thread batch, a 1-worker process pool, and a 4-worker process
  pool must yield bit-identical allocations, certificates, and round
  counts;
* fleet lifecycle: warm state across batches, worker deaths between
  and during batches recovered by a replaced pool primed from the
  dispatcher's β, repeated deaths raising, and no child process left
  after ``close()`` / ``Engine.close()``;
* the sharded dynamic replay vs the in-process ``Engine.stream``.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.api import Engine, SolverConfig
from repro.api.report import AllocationReport
from repro.graphs.generators import erdos_renyi_instance, power_law_instance
from repro.serve import (
    AllocationSession,
    ShardedExecutor,
    SolveRequest,
    instance_hash,
    solve_batch,
    solve_stream,
)


@pytest.fixture(scope="module")
def instance():
    return power_law_instance(n_left=60, n_right=24, seed=3)


@pytest.fixture(scope="module")
def other_instance():
    return erdos_renyi_instance(n_left=40, n_right=18, m=120, seed=7)


def _requests(n, *, epsilon=0.2):
    return [
        SolveRequest(epsilon=epsilon, capacity_updates={i % 5: 2})
        for i in range(n)
    ]


def _dicts(reports):
    return [r.to_dict() for r in reports]


def _kill_worker(executor, shard):
    """SIGKILL the shard's worker process while it is idle."""
    pid = executor._pools[shard].submit(os.getpid).result(timeout=60)
    os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# Content hash (the routing key)
# ----------------------------------------------------------------------
class TestInstanceHash:
    def test_stable_across_calls(self, instance):
        assert instance_hash(instance) == instance_hash(instance)

    def test_ignores_name_and_metadata(self, instance):
        from repro.graphs.instances import AllocationInstance

        renamed = AllocationInstance(
            graph=instance.graph,
            capacities=instance.capacities,
            arboricity_upper_bound=instance.arboricity_upper_bound,
            name="renamed-tenant",
            metadata={"anything": "else"},
        )
        assert instance_hash(renamed) == instance_hash(instance)

    def test_sensitive_to_capacities(self, instance):
        from repro.graphs.instances import AllocationInstance

        bumped = AllocationInstance(
            graph=instance.graph,
            capacities=instance.capacities + 1,
            name=instance.name,
        )
        assert instance_hash(bumped) != instance_hash(instance)

    def test_distinct_instances_distinct_hashes(self, instance, other_instance):
        assert instance_hash(instance) != instance_hash(other_instance)

    def test_shard_routing_is_hash_mod_workers(self, instance):
        executor = ShardedExecutor(3)
        try:
            expected = int(instance_hash(instance), 16) % 3
            assert executor.shard_of(instance) == expected
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Process-boundary pickling (the silent prerequisite)
# ----------------------------------------------------------------------
class TestPickling:
    def test_solver_config_round_trip(self):
        config = SolverConfig(
            epsilon=0.15, seed=9, executor="process", shard_workers=2,
            boost=False, lam=4,
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.to_json() == config.to_json()

    def test_allocation_report_pickles_as_detached(self, instance):
        live = Engine(seed=3).solve(instance)
        assert not live.detached
        clone = pickle.loads(pickle.dumps(live))
        assert clone.detached
        assert clone.to_dict() == live.to_dict()
        assert clone.size == live.size
        assert clone.certified == live.certified
        assert clone.local_rounds == live.local_rounds
        assert np.array_equal(clone.edge_mask, live.edge_mask)

    def test_detached_report_pickles_too(self, instance):
        detached = AllocationReport.from_json(Engine(seed=3).solve(instance).to_json())
        clone = pickle.loads(pickle.dumps(detached))
        assert clone.to_dict() == detached.to_dict()

    def test_solve_request_round_trip(self):
        request = SolveRequest(
            epsilon=0.2, capacity_updates={1: 3}, seed=7, tag="t"
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request

    def test_solve_request_with_generator_seed_pickles(self):
        request = SolveRequest(seed=np.random.default_rng(3))
        clone = pickle.loads(pickle.dumps(request))
        # same stream state: identical draws
        assert clone.seed.integers(1 << 30) == np.random.default_rng(3).integers(1 << 30)

    def test_solved_instance_pickles_and_deepcopies(self, instance):
        """A solve caches layouts and a workspace holding a
        ``threading.local`` on the graph; the dispatcher ships such
        instances to shard workers, so the caches must not travel."""
        engine = Engine(boost=False, seed=4)
        reference = engine.solve(instance).to_dict()
        for clone in (
            pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)
        ):
            assert instance_hash(clone) == instance_hash(instance)
            assert engine.solve(clone).to_dict() == reference


# ----------------------------------------------------------------------
# Cross-executor determinism (the contract the curve rides on)
# ----------------------------------------------------------------------
class TestCrossExecutorDeterminism:
    def test_thread_vs_1_vs_4_workers_bit_identical(self, instance):
        requests = _requests(6)
        session = AllocationSession(instance)
        thread_results = solve_stream(session, requests, seed=42)
        reference = _dicts(
            AllocationReport.from_pipeline(r) for r in thread_results
        )
        for workers in (1, 4):
            with ShardedExecutor(workers) as executor:
                reports = executor.run_batch(instance, requests, seed=42)
            assert _dicts(reports) == reference, f"{workers}-worker mismatch"
        # certificates and round counts are inside to_dict, but assert
        # the headline fields explicitly — they are the acceptance bar.
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(instance, requests, seed=42)
        for report, result in zip(reports, thread_results):
            assert report.certified
            assert report.local_rounds == result.mpc.local_rounds
            assert np.array_equal(report.edge_mask, result.edge_mask)

    def test_unprimed_batch_matches_solve_batch(self, instance):
        requests = _requests(5)
        session = AllocationSession(instance)
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_batch(session, requests, seed=11, max_workers=2)
        )
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(instance, requests, seed=11, prime=False)
        assert _dicts(reports) == reference

    def test_multi_instance_routing_matches_thread_groups(
        self, instance, other_instance
    ):
        """Interleaved tenants: each instance's sub-stream must follow
        the same solve_stream semantics the thread path applies to an
        aligned session sequence."""
        instances = [instance, other_instance, instance, other_instance, instance]
        requests = _requests(5)
        session_a = AllocationSession(instance)
        session_b = AllocationSession(other_instance)
        aligned = [
            session_a if inst is instance else session_b for inst in instances
        ]
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_batch(aligned, requests, seed=13, max_workers=1)
        )
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(
                instances, requests, seed=13, prime=False
            )
            stats = executor.stats()
        assert _dicts(reports) == reference
        assert stats["published_instances"] == 2
        # same instance → same shard: every solve of one content hash
        # is owned by exactly one worker
        owners = {
            content: worker
            for worker, shard in stats["shards"].items()
            if shard is not None
            for content in shard["sessions"]
        }
        assert len(owners) == 2

    def test_spawn_workers_match_thread_path(self, instance, other_instance):
        """Under ``spawn`` the pool initializer, the tasks and every
        payload must import and pickle, which ``fork`` partly hides."""
        from repro.dynamic import SCENARIOS

        instances = [instance, other_instance, instance, other_instance]
        requests = _requests(4)
        sessions = {id(i): AllocationSession(i) for i in (instance, other_instance)}
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_batch(
                [sessions[id(i)] for i in instances], requests,
                seed=13, max_workers=1,
            )
        )
        deltas = SCENARIOS["diurnal_wave"](instance, 2, seed=5)
        with ShardedExecutor(2, start_method="spawn") as executor:
            reports = executor.run_batch(
                instances, requests, seed=13, prime=False, timeout=120
            )
            remote = executor.run_replay(instance, deltas, seed=5, timeout=120)
        assert _dicts(reports) == reference
        stream = Engine(seed=5).stream(instance, deltas)
        assert _dicts(remote.reports) == _dicts(stream.reports)

    def test_engine_batch_executor_parity(self, instance):
        requests = _requests(4)
        with Engine(seed=21) as engine:
            thread_reports = engine.batch(instance, requests)
            process_reports = engine.batch(
                instance, requests, executor="process", workers=2
            )
        assert _dicts(process_reports) == _dicts(thread_reports)

    def test_explicit_request_seeds_win(self, instance):
        requests = [SolveRequest(seed=123), SolveRequest(seed=123)]
        with ShardedExecutor(1) as executor:
            reports = executor.run_batch(instance, requests, seed=0, prime=False)
        assert reports[0].to_dict() == reports[1].to_dict()


# ----------------------------------------------------------------------
# Fleet lifecycle: warmth, crashes, cleanup
# ----------------------------------------------------------------------
class TestFleetLifecycle:
    def test_warm_state_across_batches(self, instance):
        requests = _requests(3)
        with ShardedExecutor(1) as executor:
            assert executor.warm_exponents(instance) is None
            first = executor.run_batch(instance, requests, seed=1)
            assert executor.warm_exponents(instance) is not None
            second = executor.run_batch(instance, requests, seed=1)
        assert first[0].meta["warm_start"] is False
        # second batch: the resident session is warm, so even the
        # primed first request warm-starts — exactly like a thread
        # session serving stream after stream
        assert all(r.meta["warm_start"] for r in second)
        session = AllocationSession(instance)
        solve_stream(session, requests, seed=1)
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_stream(session, requests, seed=1)
        )
        assert _dicts(second) == reference

    def test_crash_respawn_recovers_warm_state(self, instance):
        requests = _requests(3)
        with ShardedExecutor(1) as executor:
            executor.run_batch(instance, requests, seed=1)
            # kill the only worker between batches
            _kill_worker(executor, 0)
            reports = executor.run_batch(instance, requests, seed=1)
            assert executor.restarts == 1
        assert not multiprocessing.active_children()
        # the replacement pool primed from the dispatcher's β: same
        # answers as an uninterrupted fleet's second batch
        with ShardedExecutor(1) as executor:
            executor.run_batch(instance, requests, seed=1)
            uninterrupted = executor.run_batch(instance, requests, seed=1)
        assert _dicts(reports) == _dicts(uninterrupted)
        assert all(r.meta["warm_start"] for r in reports)

    def test_worker_killed_mid_batch_is_retried(
        self, instance, other_instance, tmp_path, monkeypatch
    ):
        """One shard serves two tenants.  In the second batch its
        worker finishes the first tenant's group, then dies inside the
        second tenant's group after that session committed a solve.
        Only the unfinished group re-runs, primed from the β the
        dispatcher holds, and the batch equals an uninterrupted one."""
        instances = [instance, other_instance] * 3
        requests = _requests(6)
        with ShardedExecutor(1) as executor:
            executor.run_batch(instances, requests, seed=5)
            uninterrupted = executor.run_batch(instances, requests, seed=5)

        armed, killed = tmp_path / "armed", tmp_path / "killed"
        victim = instance_hash(other_instance)
        solve_detached = AllocationSession.solve_detached

        def die_once(session, *args, **kwargs):
            if (
                armed.exists() and not killed.exists()
                and instance_hash(session.instance) == victim
            ):
                killed.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return solve_detached(session, *args, **kwargs)

        # Patched before the pool forks its worker.
        monkeypatch.setattr(AllocationSession, "solve_detached", die_once)
        with ShardedExecutor(1) as executor:
            executor.run_batch(instances, requests, seed=5)
            armed.touch()
            reports = executor.run_batch(instances, requests, seed=5)
            assert killed.exists()
            assert executor.restarts == 1
        assert not multiprocessing.active_children()
        assert _dicts(reports) == _dicts(uninterrupted)

    def test_worker_death_mid_batch_raises(self, instance, monkeypatch):
        """A request whose solve kills its worker on every attempt: the
        pool is replaced and the group re-run once, then the batch
        raises naming the shard."""

        def die(session, *args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        # Patched before the pool forks its worker.
        monkeypatch.setattr(AllocationSession, "solve", die)
        with ShardedExecutor(1) as executor:
            with pytest.raises(RuntimeError, match="shard worker 0 died"):
                executor.run_batch(instance, _requests(2), seed=0, timeout=60)
            assert executor.restarts == 2
            # the next batch forks a fresh worker and serves normally
            monkeypatch.undo()
            reports = executor.run_batch(instance, _requests(2), seed=0)
            assert all(r.certified for r in reports)
        assert not multiprocessing.active_children()

    def test_worker_exception_propagates(self, instance):
        bad = SolveRequest(capacity_updates={instance.n_right + 99: 1})
        with ShardedExecutor(1) as executor:
            with pytest.raises(RuntimeError, match="failed on positions"):
                executor.run_batch(instance, [bad], seed=0, timeout=60)
            # the fleet survives a request-level failure
            ok = executor.run_batch(instance, _requests(1), seed=0)
        assert ok[0].certified

    def test_close_stops_workers(self, instance):
        executor = ShardedExecutor(2)
        executor.run_batch(instance, _requests(2), seed=0)
        assert multiprocessing.active_children()
        executor.close()
        executor.close()  # idempotent
        assert not multiprocessing.active_children()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_batch(instance, _requests(1), seed=0)

    def test_engine_close_shuts_fleet_down(self, instance):
        engine = Engine(seed=2).activate()
        engine.batch(instance, _requests(2), executor="process", workers=2)
        fleet = engine._fleet
        assert fleet is not None
        engine.close()
        assert engine._fleet is None
        assert not multiprocessing.active_children()
        assert fleet._closed

    def test_process_executor_rejects_sessions(self, instance):
        engine = Engine()
        with pytest.raises(TypeError, match="instances, not sessions"):
            engine.batch(
                AllocationSession(instance), _requests(1), executor="process"
            )

    def test_misaligned_instances_rejected(self, instance):
        with ShardedExecutor(1) as executor:
            with pytest.raises(ValueError, match="instances for"):
                executor.run_batch([instance, instance], _requests(3), seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="executor"):
            SolverConfig(executor="fork-bomb")
        with pytest.raises(ValueError, match="shard_workers"):
            SolverConfig(shard_workers=0)
        with pytest.raises(ValueError):
            ShardedExecutor(0)


# ----------------------------------------------------------------------
# Sharded dynamic replay
# ----------------------------------------------------------------------
class TestShardedReplay:
    def test_replay_matches_engine_stream(self, instance):
        from repro.dynamic import SCENARIOS

        deltas = SCENARIOS["diurnal_wave"](instance, 4, seed=5)
        with Engine(seed=5) as engine:
            stream = engine.stream(instance, deltas)
            with ShardedExecutor(2) as executor:
                remote = executor.run_replay(instance, deltas, seed=5)
        assert remote.prime is not None and stream.prime is not None
        assert remote.prime.to_dict() == stream.prime.to_dict()
        assert list(remote.rows) == stream.rows()
        assert _dicts(remote.reports) == _dicts(stream.reports)
        assert remote.stats == stream.session.stats.as_dict()
