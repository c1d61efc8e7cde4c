"""The Engine façade: one entry point over every solve path.

An :class:`Engine` binds a :class:`~repro.api.SolverConfig` and exposes
the repository's five serving shapes behind one surface (DESIGN.md
§10):

========================  ============================================
``solve(instance)``        cold pipeline solve
                           (:func:`repro.core.pipeline.solve_allocation`)
``solve_mpc(instance)``    fractional-only Theorem-3 solve
                           (:func:`~repro.core.mpc_driver.solve_allocation_mpc`)
``open_session(inst)``     resident warm-start session
                           (:class:`repro.serve.AllocationSession`)
``open_dynamic(inst)``     delta-driven dynamic session
                           (:class:`repro.dynamic.DynamicSession`)
``batch(...)``             request batch over a session
                           (:func:`repro.serve.solve_stream` /
                           :func:`~repro.serve.solve_batch`)
``stream(...)``            delta-stream replay
                           (:func:`repro.serve.replay_stream`)
========================  ============================================

Lifecycle: the engine applies its config's kernel backend *scoped*.
``with Engine(config) as engine: ...`` installs it on entry and
restores the previous selection on exit; outside a ``with`` block each
call applies and restores it around itself.
:meth:`activate` installs it process-wide without a paired restore —
the CLI's historical semantics.

Parity contract (asserted in ``tests/test_api.py`` and CI): on the
same :class:`SolverConfig`, ``Engine.solve`` *is* a
:func:`~repro.core.pipeline.solve_allocation` call with the config's
knobs (:meth:`SolverConfig.session_kwargs`), so it equals that call,
a cold session solve and a batch's cold first request report for
report; ``Engine.solve_mpc`` is bit-identical to
:func:`~repro.core.mpc_driver.solve_allocation_mpc` — the façade
changes how solves are *addressed*, never what they compute.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.config import SolverConfig
from repro.api.report import AllocationReport
from repro.core.pipeline import solve_allocation
from repro.dynamic.session import DynamicSession
from repro.graphs.instances import AllocationInstance
from repro.kernels.backends import _install_backend
from repro.serve.session import AllocationSession, SolveRequest

__all__ = ["Engine", "StreamResult"]


@dataclass(frozen=True)
class StreamResult:
    """Outcome of :meth:`Engine.stream`: the priming solve, one
    :class:`~repro.serve.ReplayStep` per delta, and the session left
    resident for further events."""

    session: DynamicSession = field(repr=False)
    prime: Optional[AllocationReport]
    steps: tuple

    @property
    def reports(self) -> list[AllocationReport]:
        """Per-step results wrapped as :class:`AllocationReport`."""
        return [AllocationReport.from_pipeline(step.result) for step in self.steps]

    def rows(self) -> list[dict[str, Any]]:
        """JSON-serializable per-step audit rows."""
        return [step.as_row() for step in self.steps]


def _as_request(obj: Union[SolveRequest, Mapping[str, Any]]) -> SolveRequest:
    if isinstance(obj, SolveRequest):
        return obj
    return SolveRequest.from_json(obj)


def _as_delta(obj: Any):
    if isinstance(obj, Mapping):
        from repro.dynamic.deltas import delta_from_json

        return delta_from_json(obj)
    return obj


class Engine:
    """One configured solver engine over every execution path.

    Construct from a :class:`SolverConfig` (or keyword overrides of
    the defaults): ``Engine(config)``, ``Engine(epsilon=0.1,
    backend="reference")``, or ``Engine(config, seed=7)``.
    """

    def __init__(self, config: Optional[SolverConfig] = None, **overrides: Any):
        if config is not None and not isinstance(config, SolverConfig):
            raise TypeError(
                f"config must be a SolverConfig, got {type(config).__name__}"
            )
        if config is None:
            config = SolverConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self._restore: Optional[tuple] = None
        self._fleet = None  # resident ShardedExecutor (process batches)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._restore is not None else "inactive"
        return f"<Engine {state} config={self.config!r}>"

    # -- lifecycle -------------------------------------------------------
    def activate(self) -> "Engine":
        """Install the config's kernel backend process-globally.

        Idempotent.  Pair with :meth:`close` (or use the engine as a
        context manager) to restore the previous selection; leave
        unpaired for the install-and-forget CLI shape.
        """
        if self._restore is None:
            prev_backend = None
            if self.config.backend is not None:
                prev_backend = _install_backend(self.config.backend)
            self._restore = (prev_backend,)
        return self

    def close(self) -> None:
        """Restore the backend active before :meth:`activate`,
        and shut down the resident shard fleet, joining every worker
        process."""
        if self._fleet is not None:
            fleet, self._fleet = self._fleet, None
            fleet.close()
        if self._restore is not None:
            (prev_backend,) = self._restore
            self._restore = None
            if prev_backend is not None:
                _install_backend(prev_backend)

    def __enter__(self) -> "Engine":
        return self.activate()

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    @contextmanager
    def _scoped(self):
        """Backend applied for one call (no-op when the engine is
        already activated)."""
        if self._restore is not None:
            yield
            return
        self.activate()
        try:
            yield
        finally:
            self.close()

    # -- instance plumbing ----------------------------------------------
    @staticmethod
    def load_instance(path: Any) -> AllocationInstance:
        """Load an instance JSON file (:mod:`repro.graphs.io`)."""
        from repro.graphs.io import load_instance

        return load_instance(path)

    @staticmethod
    def generate_instance(family: str, **params: Any) -> AllocationInstance:
        """Materialize a benchmark-family instance by registry name.

        Raises ``ValueError`` listing the known families for an
        unknown name (the CLI's ``generate`` path).
        """
        from repro.graphs.generators import FAMILY_BUILDERS

        builder = FAMILY_BUILDERS.get(family)
        if builder is None:
            raise ValueError(
                f"unknown family {family!r}; available: {sorted(FAMILY_BUILDERS)}"
            )
        return builder(**params)

    # -- the solve paths -------------------------------------------------
    def solve(
        self,
        instance: AllocationInstance,
        *,
        seed: Any = None,
        initial_exponents: Optional[np.ndarray] = None,
        **overrides: Any,
    ) -> AllocationReport:
        """Cold full-pipeline solve under this engine's config.

        ``overrides`` are per-call :class:`SolverConfig` field
        overrides (re-validated); ``seed=None`` falls back to the
        config's seed policy.  The report of the
        :func:`~repro.core.pipeline.solve_allocation` call with the
        config's knobs (the parity test).
        """
        config = self.config.replace(**overrides) if overrides else self.config
        if seed is None:
            seed = config.seed
        with self._scoped():
            result = solve_allocation(
                instance,
                seed=seed,
                initial_exponents=initial_exponents,
                **config.session_kwargs(),
            )
        return AllocationReport.from_pipeline(result)

    def solve_mpc(
        self,
        instance: AllocationInstance,
        *,
        seed: Any = None,
        initial_exponents: Optional[np.ndarray] = None,
        **mpc_kwargs: Any,
    ) -> AllocationReport:
        """Fractional Theorem-3 solve (the config's ``mode`` selects
        simulate vs faithful execution).  Extra keywords forward to
        :func:`~repro.core.mpc_driver.solve_allocation_mpc`, winning
        over the config's value for config-backed parameters
        (``mode``, ``alpha``, ``lam``,
        ``budget_policy``, ``safety_fraction``).
        Bit-identical to the direct call on the same config."""
        if seed is None:
            seed = self.config.seed
        call_kwargs: dict[str, Any] = {
            "alpha": self.config.alpha,
            "lam": self.config.lam,
            "mode": self.config.mode,
            "budget_policy": self.config.mpc_budget_policy,
            "safety_fraction": self.config.mpc_safety_fraction,
            "initial_exponents": initial_exponents,
        }
        call_kwargs.update(mpc_kwargs)
        with self._scoped():
            from repro.core.mpc_driver import solve_allocation_mpc

            result = solve_allocation_mpc(
                instance, self.config.epsilon, seed=seed, **call_kwargs
            )
        return AllocationReport.from_mpc(result)

    # -- resident sessions -----------------------------------------------
    def open_session(self, instance: AllocationInstance) -> AllocationSession:
        """A resident warm-start session carrying this config's
        defaults (DESIGN.md §8).  Run it inside the engine's ``with``
        block when the config selects a non-default backend."""
        return AllocationSession(instance, **self.config.session_kwargs())

    def open_dynamic(self, instance: AllocationInstance) -> DynamicSession:
        """A delta-driven dynamic session carrying this config's
        defaults (DESIGN.md §9)."""
        return DynamicSession(instance, **self.config.session_kwargs())

    def open_service(self, store_dir: Any, **service_kwargs: Any):
        """A durable-session :class:`~repro.serve.AllocationService`
        persisting to ``store_dir`` (DESIGN.md §14).

        Every resident session carries this config's solver defaults;
        the service's deterministic seed-cursor root falls back to the
        config's ``seed`` (else 0).  Remaining keywords — socket path,
        ``max_sessions``, checkpoint cadence, restore verification —
        forward to the :class:`~repro.serve.AllocationService`
        constructor.  Start it with
        :func:`~repro.serve.run_service` (blocking) or ``await
        service.start()`` inside a running loop.
        """
        from repro.serve.service import AllocationService

        service_kwargs.setdefault(
            "seed", self.config.seed if self.config.seed is not None else 0
        )
        return AllocationService(
            store_dir,
            session_kwargs=self.config.session_kwargs(),
            **service_kwargs,
        )

    # -- batch / stream --------------------------------------------------
    def batch(
        self,
        target: Union[
            AllocationInstance, AllocationSession, Sequence[AllocationInstance]
        ],
        requests: Iterable[Union[SolveRequest, Mapping[str, Any]]],
        *,
        seed: Any = None,
        max_workers: Optional[int] = None,
        prime: bool = True,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> list[AllocationReport]:
        """Serve a request batch through a resident session (or fleet).

        ``target`` is an instance (a fresh session is opened), an
        existing :class:`~repro.serve.AllocationSession`, or — process
        executor only — a sequence of instances aligned with the
        requests (multi-tenant routing).  Requests may be
        :class:`~repro.serve.SolveRequest` objects or their JSON
        mappings.  ``prime=True`` (default) runs each session's first
        request serially so the batched remainder warm-starts
        (:func:`repro.serve.solve_stream`); ``prime=False`` is a plain
        :func:`repro.serve.solve_batch` against current warm state.

        ``executor`` selects the execution tier (config default
        ``"thread"``): ``"thread"`` runs the in-process pool
        (``workers``/``max_workers`` = pool width), ``"process"``
        routes through the resident :class:`~repro.serve.ShardedExecutor`
        shard fleet (``workers`` = shard count, config
        ``shard_workers``, else one per core; ``target`` must be
        instances, not a session — sessions cannot cross processes).
        Both tiers obey the same seed-per-position determinism
        contract and return bit-identical reports for the same
        ``(target, requests, seed)``.

        The shard fleet stays resident between calls on an activated
        engine (``with Engine(...) as e:`` / ``e.activate()``) and is
        shut down by :meth:`close`; on a non-activated engine the
        per-call scope tears it down again after each batch — activate
        the engine when you want warm shards across batches.
        """
        if executor is None:
            executor = self.config.executor
        if executor == "process":
            return self._batch_sharded(
                target, requests, seed=seed, workers=workers, prime=prime
            )
        if executor != "thread":
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if isinstance(target, (list, tuple)):
            raise TypeError(
                "a sequence of instances requires executor='process'; the "
                "thread executor serves one session/instance per batch"
            )
        session = (
            target
            if isinstance(target, AllocationSession)
            else self.open_session(target)
        )
        reqs = [_as_request(r) for r in requests]
        if seed is None:
            seed = self.config.seed
        if max_workers is None:
            max_workers = workers if workers is not None else self.config.max_workers
        with self._scoped():
            if prime:
                from repro.serve.batch import solve_stream

                results = solve_stream(
                    session, reqs, seed=seed, max_workers=max_workers
                )
            else:
                from repro.serve.batch import solve_batch

                results = solve_batch(
                    session, reqs, seed=seed, max_workers=max_workers
                )
        return [AllocationReport.from_pipeline(r) for r in results]

    def shard_executor(self, workers: Optional[int] = None):
        """The engine's resident :class:`~repro.serve.ShardedExecutor`,
        started on first use (``workers`` falls back to the config's
        ``shard_workers``, else one shard per logical core).  A request
        for a different worker count replaces the fleet.  Closed —
        every worker joined — by :meth:`close`.
        """
        import os

        from repro.serve.sharding import ShardedExecutor

        if workers is None:
            workers = self.config.shard_workers
        if workers is None:
            workers = os.cpu_count() or 1
        if self._fleet is not None and self._fleet.workers != workers:
            fleet, self._fleet = self._fleet, None
            fleet.close()
        if self._fleet is None:
            self._fleet = ShardedExecutor(workers, config=self.config).start()
        return self._fleet

    def _batch_sharded(
        self, target, requests, *, seed, workers, prime
    ) -> list[AllocationReport]:
        if isinstance(target, AllocationSession):
            raise TypeError(
                "executor='process' serves instances, not sessions — shard "
                "workers own their sessions; pass the AllocationInstance"
            )
        reqs = [_as_request(r) for r in requests]
        if seed is None:
            seed = self.config.seed
        with self._scoped():
            return self.shard_executor(workers).run_batch(
                target, reqs, seed=seed, prime=prime
            )

    def stream(
        self,
        target: Union[AllocationInstance, DynamicSession],
        deltas: Iterable[Any],
        *,
        seed: Any = None,
        requests: Optional[Sequence[Optional[SolveRequest]]] = None,
        prime: bool = True,
    ) -> StreamResult:
        """Replay an instance-delta stream with warm incremental
        re-solves.

        ``target`` is an initial instance (a fresh
        :class:`~repro.dynamic.DynamicSession` is opened) or an
        existing session; deltas may be
        :class:`~repro.dynamic.InstanceDelta` objects or their JSON
        mappings.  ``prime=True`` runs the initial solve that
        establishes the warm state before the first delta (the CLI's
        shape).  Returns a :class:`StreamResult`.
        """
        dynamic = (
            target if isinstance(target, DynamicSession) else self.open_dynamic(target)
        )
        delta_list = [_as_delta(d) for d in deltas]
        if seed is None:
            seed = self.config.seed
        with self._scoped():
            prime_report = None
            if prime:
                prime_report = AllocationReport.from_pipeline(
                    dynamic.resolve(seed=seed)
                )
            from repro.serve.replay import replay_stream

            steps = replay_stream(dynamic, delta_list, seed=seed, requests=requests)
        return StreamResult(session=dynamic, prime=prime_report, steps=tuple(steps))
