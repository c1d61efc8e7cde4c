"""Multi-process sharded serving (DESIGN.md §12).

:class:`ShardedExecutor` serves different instances' request streams
in different processes, past the GIL that caps ``solve_batch``.  Each
of its N shards is a single-process
:class:`concurrent.futures.ProcessPoolExecutor` whose worker keeps one
resident :class:`~repro.serve.AllocationSession` per instance.  A
request routes by its instance's stable content hash
(:func:`~repro.graphs.instances.instance_hash`), so an instance always
lands on the same shard and finds its warm session there.  The
instance travels by pickle with the first task the shard's current
pool gets for it; a batch task returns its detached
:class:`~repro.api.AllocationReport` objects, the worker-measured solve
seconds and the session's committed β, which the dispatcher keeps.

Determinism: request ``i`` with no explicit seed receives
``spawn(seed, n)[i]``, assigned *before* routing, and each shard serves
its instances' sub-streams in position order under the thread path's
snapshot/commit rule (:mod:`repro.serve.batch`).  A batch is a pure
function of ``(instances, requests, seed)``, bit-identical across
worker counts and to the thread executor (``tests/test_sharding.py``).

Crashes: a pool that raises ``BrokenProcessPool``, at submit or at
result, is replaced, and the shard's unfinished tasks re-run once on
the fresh pool, primed from the dispatcher's β.  Nothing is committed
at the dispatcher until a task succeeds, so the re-run returns what an
uninterrupted fleet would.  A second break in one call raises
``RuntimeError`` naming the shard.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from repro.graphs.instances import AllocationInstance, instance_hash
from repro.serve.session import AllocationSession, SolveRequest
from repro.utils.rng import spawn
from repro.utils.validation import check_positive_int

__all__ = ["ShardedExecutor", "ShardReplayResult"]


@dataclass(frozen=True)
class ShardReplayResult:
    """Outcome of a sharded delta-stream replay: the priming report,
    one audit row + detached report per step, and the remote
    :class:`~repro.dynamic.DynamicSession` stats."""

    prime: Optional[AllocationReport]
    rows: tuple[dict, ...]
    reports: tuple[AllocationReport, ...]
    stats: dict


# ----------------------------------------------------------------------
# Worker side: one shard per pool process
# ----------------------------------------------------------------------
class _Shard:
    """A shard worker's resident state: one session per instance it
    was sent, and its counters."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.sessions: dict[str, AllocationSession] = {}
        self.counters = {"batches": 0, "replays": 0, "solves": 0}

    def session(self, content_hash: str, shipped) -> AllocationSession:
        if shipped is not None:
            instance, warm = shipped
            session = AllocationSession(instance, **self.config.session_kwargs())
            if warm is not None:
                # A fresh pool after a crash: prime from the
                # dispatcher's β so the first solve warm-starts exactly
                # as the lost session would have.
                session.prime_exponents(warm)
            self.sessions[content_hash] = session
        return self.sessions[content_hash]


_shard: Optional[_Shard] = None  # this worker's state, set by _init_shard


def _init_shard(config: SolverConfig) -> None:
    """Pool initializer: activate ``config`` and start an empty shard.
    Module-level, like every task below, so every start method
    (fork/spawn/forkserver) can import it."""
    global _shard
    from repro.api.engine import Engine

    Engine(config).activate()
    _shard = _Shard(config)


def _serve_group(content_hash: str, shipped, items, prime: bool):
    """Task: serve one instance's sub-stream in position order.

    Returns ``(report per item, solve seconds per item, the session's
    committed β)``.  A live report pickles as its detached schema
    payload, key order intact, so it prints summary rows key-for-key
    identical to a live one on the other side.
    """
    from repro.api.report import AllocationReport

    _shard.counters["batches"] += 1
    session = _shard.session(content_hash, shipped)
    results: dict[int, Any] = {}
    latencies: dict[int, float] = {}
    rest = items
    if prime and items:
        # Mirror solve_stream: first request serially through
        # solve() (committing its exponents), remainder batched
        # from the post-commit snapshot.
        pos0, req0 = items[0]
        t0 = time.perf_counter()
        results[pos0] = session.solve(req0)
        latencies[pos0] = time.perf_counter() - t0
        rest = items[1:]
    if rest:
        # The solve_batch snapshot/commit rule, serialized: all
        # requests from one snapshot, highest position commits.
        snapshot = session.exponents_snapshot()
        for pos, req in rest:
            initial = snapshot if req.warm else None
            t0 = time.perf_counter()
            results[pos] = session.solve_detached(
                req, initial_exponents=initial
            )
            latencies[pos] = time.perf_counter() - t0
        session.commit(results[rest[-1][0]])
    _shard.counters["solves"] += len(items)
    return (
        [AllocationReport.from_pipeline(results[pos]) for pos, _ in items],
        [latencies[pos] for pos, _ in items],
        session.exponents_snapshot(),
    )


def _replay_stream(content_hash: str, shipped, deltas, requests, seed,
                   prime: bool) -> ShardReplayResult:
    """Task: replay a delta stream on a fresh DynamicSession."""
    from repro.api.report import AllocationReport
    from repro.dynamic.session import DynamicSession
    from repro.serve.replay import replay_stream

    _shard.counters["replays"] += 1
    instance = _shard.session(content_hash, shipped).instance
    dynamic = DynamicSession(instance, **_shard.config.session_kwargs())
    prime_report = None
    if prime:
        prime_report = AllocationReport.from_pipeline(dynamic.resolve(seed=seed))
    steps = replay_stream(dynamic, deltas, seed=seed, requests=requests)
    _shard.counters["solves"] += len(steps) + int(prime)
    return ShardReplayResult(
        prime=prime_report,
        rows=tuple(step.as_row() for step in steps),
        reports=tuple(AllocationReport.from_pipeline(s.result) for s in steps),
        stats=dynamic.stats.as_dict(),
    )


def _shard_stats() -> dict:
    """Task: the worker's counters and per-instance session stats."""
    return {
        "worker": dict(_shard.counters),
        "sessions": {h: s.stats.as_dict() for h, s in _shard.sessions.items()},
    }


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
class ShardedExecutor:
    """A resident fleet of shard worker processes (DESIGN.md §12).

    Parameters
    ----------
    workers:
        Number of shards, each one worker process.  Each owns the
        sessions of the instances hashing to it.
    config:
        The :class:`~repro.api.SolverConfig` every worker activates and
        builds sessions from (defaults: ``SolverConfig()``).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap, Linux) and falls back to ``spawn``.

    Use as a context manager, or pair with :meth:`close`, which shuts
    every shard's pool down and joins its worker.
    """

    def __init__(
        self,
        workers: int,
        *,
        config: Optional[SolverConfig] = None,
        start_method: Optional[str] = None,
    ):
        # repro.api is imported lazily everywhere in this module: the
        # serve and api packages import each other (engine -> serve
        # sessions, sharding -> api config/report), and either one may
        # be mid-initialization when this module loads.
        from repro.api.config import SolverConfig

        self.workers = check_positive_int(workers, "workers")
        self.config = config if config is not None else SolverConfig()
        if not isinstance(self.config, SolverConfig):
            raise TypeError(
                f"config must be a SolverConfig, got {type(self.config).__name__}"
            )
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._pools: list[Optional[ProcessPoolExecutor]] = [None] * self.workers
        # Content hashes each shard's current pool has been sent.
        self._sent: list[set[str]] = [set() for _ in range(self.workers)]
        # The latest committed β per instance: what a fresh pool primes
        # its sessions from.
        self._warm: dict[str, Any] = {}
        self.restarts = 0
        self.last_latencies: list[Optional[float]] = []
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ShardedExecutor":
        """Create the shard pools (idempotent; batches call this
        lazily).  Each pool starts its worker with its first task."""
        for shard in range(self.workers):
            self._pool(shard)
        return self

    def _pool(self, shard: int) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("executor is closed")
        pool = self._pools[shard]
        if pool is None:
            pool = ProcessPoolExecutor(
                1, mp_context=self._ctx,
                initializer=_init_shard, initargs=(self.config,),
            )
            self._pools[shard] = pool
        return pool

    def _replace(self, shard: int) -> None:
        """Drop a broken pool; the shard's next task starts a fresh
        one, which is sent every instance again."""
        self._pools[shard].shutdown(wait=True, cancel_futures=True)
        self._pools[shard] = None
        self._sent[shard].clear()
        self.restarts += 1

    def close(self) -> None:
        """Shut every shard pool down and join its worker — queued
        tasks are cancelled, a running one is waited for.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardedExecutor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # -- routing ---------------------------------------------------------
    def shard_of(self, instance: AllocationInstance) -> int:
        """The worker index ``instance`` routes to (stable content
        hash modulo worker count)."""
        return int(instance_hash(instance), 16) % self.workers

    def warm_exponents(self, instance: AllocationInstance):
        """The instance's latest committed β vector, as its shard
        returned it (``None`` before the shard first commits)."""
        exponents = self._warm.get(instance_hash(instance))
        return None if exponents is None else exponents.copy()

    def _run(self, jobs: dict, timeout: Optional[float]) -> tuple:
        """Run one task per instance on its shard; read every outcome.

        ``jobs`` maps a content hash to ``(instance, task, args, what)``:
        the shard runs ``task(content, shipped, *args)``, where
        ``shipped`` is ``(instance, β)`` on its current pool's first
        sight of the instance and ``None`` after, and ``what`` ends the
        job's error messages.  A pool that breaks, at submit or at
        result, is replaced and its jobs re-run once on the fresh pool.
        Returns the results by content hash and the first failure; a
        job still running at the deadline is not waited for.
        """

        def submit(content: str) -> tuple:
            instance, task, args, _ = jobs[content]
            shard = int(content, 16) % self.workers
            pool = self._pool(shard)
            shipped = None
            if content not in self._sent[shard]:
                self._sent[shard].add(content)
                shipped = instance, self._warm.get(content)
            try:
                return pool, pool.submit(task, content, shipped, *args)
            except BrokenProcessPool as exc:
                # Fail the future instead, so a break at submit and
                # one at result take the same path below.
                failed: Future = Future()
                failed.set_exception(exc)
                return pool, failed

        submitted = {content: submit(content) for content in jobs}
        deadline = None if timeout is None else time.monotonic() + timeout
        broken: set[int] = set()
        results: dict[str, Any] = {}
        failure: Optional[Exception] = None
        for content, (_, _, _, what) in jobs.items():
            shard = int(content, 16) % self.workers
            pool, future = submitted[content]
            while content not in results:
                left = None if deadline is None else deadline - time.monotonic()
                if not wait([future], timeout=left).done:
                    failure = failure or TimeoutError(
                        f"shard worker {shard} timed out {what}"
                    )
                    break
                try:
                    results[content] = future.result()
                except BrokenProcessPool:
                    if self._pools[shard] is pool:
                        self._replace(shard)
                        if shard in broken:
                            failure = failure or RuntimeError(
                                f"shard worker {shard} died {what}, and "
                                "again after its pool was replaced"
                            )
                            break
                        broken.add(shard)
                    pool, future = submit(content)
                except Exception as exc:
                    tb = "".join(traceback.format_exception(exc))
                    failure = failure or RuntimeError(
                        f"shard worker {shard} failed {what}:\n{tb}"
                    )
                    break
        return results, failure

    # -- batch execution -------------------------------------------------
    def run_batch(
        self,
        instances: Union[AllocationInstance, Sequence[AllocationInstance]],
        requests: Sequence[Union[SolveRequest, Mapping[str, Any]]],
        *,
        seed=None,
        prime: bool = True,
        timeout: Optional[float] = None,
    ) -> list[AllocationReport]:
        """Serve a request batch across the shard fleet.

        ``instances`` is one instance (every request targets it) or a
        sequence aligned with ``requests`` (multi-tenant; the same
        instance may appear many times).  Per instance, the sub-stream
        follows :func:`~repro.serve.batch.solve_stream` semantics when
        ``prime=True`` (first request serially, remainder from the
        post-commit snapshot) and :func:`~repro.serve.batch.solve_batch`
        semantics when ``prime=False``.  Returns detached
        :class:`~repro.api.AllocationReport` objects in request order;
        ``self.last_latencies`` holds the worker-measured per-request
        solve seconds of the batch.
        """
        reqs = [
            r if isinstance(r, SolveRequest) else SolveRequest.from_json(r)
            for r in requests
        ]
        n = len(reqs)
        if n == 0:
            self.last_latencies = []
            return []
        if isinstance(instances, AllocationInstance):
            per_request = [instances] * n
        else:
            per_request = list(instances)
            if len(per_request) != n:
                raise ValueError(
                    f"got {len(per_request)} instances for {n} requests; pass "
                    "one instance (shared) or exactly one per request"
                )
        streams = spawn(seed, n)
        seeded = [
            req if req.seed is not None else replace(req, seed=streams[i])
            for i, req in enumerate(reqs)
        ]

        # Group by content hash, preserving position order per group.
        groups: dict[str, list[tuple[int, SolveRequest]]] = {}
        tenants: dict[str, AllocationInstance] = {}
        for i, inst in enumerate(per_request):
            content = instance_hash(inst)
            tenants.setdefault(content, inst)
            groups.setdefault(content, []).append((i, seeded[i]))

        results, failure = self._run({
            content: (tenants[content], _serve_group, (items, prime),
                      f"on positions {[pos for pos, _ in items]}")
            for content, items in groups.items()
        }, timeout)
        ordered: list[Optional[AllocationReport]] = [None] * n
        latencies: list[Optional[float]] = [None] * n
        for content, (reports, seconds, exponents) in results.items():
            # Committed even when another group failed: the shard's
            # session holds this β now.
            self._warm[content] = exponents
            for (pos, _), report, elapsed in zip(
                groups[content], reports, seconds
            ):
                ordered[pos] = report
                latencies[pos] = elapsed
        if failure is not None:
            raise failure
        self.last_latencies = latencies
        return ordered

    # -- dynamic replay ----------------------------------------------------
    def run_replay(
        self,
        instance: AllocationInstance,
        deltas: Sequence[Any],
        *,
        seed=None,
        requests: Optional[Sequence[Optional[SolveRequest]]] = None,
        prime: bool = True,
        timeout: Optional[float] = None,
    ) -> ShardReplayResult:
        """Replay a delta stream on the instance's shard (one worker —
        a delta chain is sequential by nature; the fleet's parallelism
        is across *streams*).  Mirrors ``Engine.stream`` semantics:
        bit-identical rows and reports to the in-process replay for the
        same ``(instance, deltas, seed)``."""
        content = instance_hash(instance)
        results, failure = self._run({content: (
            instance, _replay_stream,
            (list(deltas), None if requests is None else list(requests),
             seed, prime),
            "replaying the stream",
        )}, timeout)
        if failure is not None:
            raise failure
        return results[content]

    # -- introspection -----------------------------------------------------
    def stats(self, *, timeout: float = 10.0) -> dict[str, Any]:
        """Aggregated fleet statistics: per-worker counters and
        per-instance session stats (``None`` for a shard that did not
        answer within ``timeout``), plus the restart count and the
        number of instances the current pools hold."""
        futures = {}
        for shard in range(self.workers):
            try:
                futures[shard] = self._pool(shard).submit(_shard_stats)
            except BrokenProcessPool:
                self._replace(shard)
        wait(futures.values(), timeout=timeout)
        shards = {str(shard): None for shard in range(self.workers)}
        for shard, future in futures.items():
            if future.done() and future.exception() is None:
                shards[str(shard)] = future.result()
        return {
            "workers": self.workers,
            "restarts": self.restarts,
            "published_instances": len(set().union(*self._sent)),
            "shards": shards,
        }
