"""Durable-session allocation service: a JSONL-over-socket front end.

:class:`AllocationService` is the deployable shape of the serving
layer (DESIGN.md §14): an asyncio unix-socket server multiplexing
request streams onto resident :class:`~repro.serve.AllocationSession`
objects, with the durability discipline of
:mod:`repro.serve.snapshot` underneath —

* **admission control** — at most ``max_sessions`` residents; opening
  one more evicts the least-recently-used *idle* resident to a
  snapshot, and when every resident is busy the open is refused with
  a typed ``admission_rejected`` error on the wire (never an
  unbounded memory footprint, never a silent queue).
* **request coalescing** — identical ``(instance, request)`` pairs
  arriving while a matching solve is in flight share that solve's
  future: one execution, N responses, one seed position consumed.
* **seed cursor** — a request without an explicit seed gets the
  ``i``-th seed of a keyed :class:`~repro.utils.rng.RngFactory`
  stream, where ``i`` counts the instance's seedless solves.  The
  cursor is part of the snapshot, so derived seeds — and therefore
  results — survive a restart.
* **checkpointing** — periodic (``checkpoint_interval``), on every
  commit (``checkpoint_on_commit``, the bit-identical-recovery mode),
  on eviction, and on shutdown.  Snapshots land atomically
  (:class:`~repro.serve.snapshot.SnapshotStore`).
* **crash recovery** — on start the service rehydrates the newest
  valid snapshot per instance; restored exponents re-verify the
  λ-free certificate before the session is declared warm, so the
  first post-restore request warm-starts (measured in
  ``benchmarks/bench_service.py``).

Wire protocol: one JSON object per line, one response line per
request.  Operations: ``open`` (admit an instance, embedded as
:mod:`repro.graphs.io` JSON), ``solve`` (a
:class:`~repro.serve.SolveRequest` JSON object against a resident
hash), ``reroll`` (re-round the retained fractional solve), ``stats``,
``snapshot`` (force a checkpoint), ``shutdown``.  Errors are typed:
``{"ok": false, "error": {"type": ..., "message": ...}}`` with type
one of ``bad_request`` / ``unknown_instance`` /
``admission_rejected`` / ``internal``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.graphs.instances import AllocationInstance, instance_hash
from repro.serve.session import AllocationSession, SolveRequest
from repro.serve.snapshot import (
    SnapshotStore,
    restore_session,
    snapshot_session,
)
from repro.utils.rng import RngFactory

__all__ = [
    "ServiceError",
    "AllocationService",
    "ServiceClient",
    "run_service",
]

ERROR_TYPES = ("bad_request", "unknown_instance", "admission_rejected", "internal")


class ServiceError(Exception):
    """A typed, wire-serializable service error."""

    def __init__(self, error_type: str, message: str):
        assert error_type in ERROR_TYPES
        super().__init__(message)
        self.error_type = error_type

    def as_response(self) -> dict[str, Any]:
        return {
            "ok": False,
            "error": {"type": self.error_type, "message": str(self)},
        }


@dataclass
class _Resident:
    """One admitted session plus its service-side bookkeeping."""

    session: AllocationSession
    hash: str
    seed_cursor: int = 0
    busy: int = 0            # in-flight solves (busy residents are not evictable)
    dirty: bool = False      # state newer than the last checkpoint
    last_used: int = 0       # LRU stamp (service-wide monotonic counter)
    restored_warm: bool = False


@dataclass
class ServiceCounters:
    """Service-wide counters, exported by the ``stats`` op."""

    solves: int = 0
    coalesced: int = 0
    opens: int = 0
    evictions: int = 0
    checkpoints: int = 0
    restores_warm: int = 0
    restores_cold: int = 0
    rejections: int = 0

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in (
            "solves", "coalesced", "opens", "evictions",
            "checkpoints", "restores_warm", "restores_cold", "rejections",
        )}


class AllocationService:
    """The durable-session allocation service (see module docstring).

    Construct, then either ``await service.start()`` inside a running
    loop (tests) or call :func:`run_service` (CLI).  ``session_kwargs``
    are the solver defaults for every resident session —
    :meth:`Engine.open_service <repro.api.Engine.open_service>` fills
    them from its :class:`~repro.api.SolverConfig`.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        *,
        socket_path: Optional[Union[str, Path]] = None,
        max_sessions: int = 8,
        checkpoint_interval: Optional[float] = None,
        checkpoint_on_commit: bool = False,
        seed: int = 0,
        verify_restore: bool = True,
        rehydrate: bool = True,
        session_kwargs: Optional[Mapping[str, Any]] = None,
    ):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.store = SnapshotStore(store_dir)
        self.socket_path = Path(
            socket_path if socket_path is not None
            else self.store.root / "service.sock"
        )
        self.max_sessions = int(max_sessions)
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_on_commit = bool(checkpoint_on_commit)
        self.seed = int(seed)
        self.verify_restore = bool(verify_restore)
        self.rehydrate = bool(rehydrate)
        self.session_kwargs = dict(session_kwargs or {})
        self.counters = ServiceCounters()
        self._residents: dict[str, _Resident] = {}
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._rng = RngFactory(self.seed)
        self._clock = 0
        # One worker: solves on resident sessions are serialized, which
        # keeps the commit order (and therefore warm-start lineage and
        # snapshot sequence) deterministic under concurrent clients.
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._checkpoint_task: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()

    # -- resident lifecycle ----------------------------------------------
    def _touch(self, resident: _Resident) -> None:
        self._clock += 1
        resident.last_used = self._clock

    def _derive_seed(self, resident: _Resident) -> int:
        """The ``seed_cursor``-th seed of this instance's keyed stream —
        a pure function of (service seed, instance hash, position), so
        it survives restarts and is independent of arrival order across
        instances."""
        return self._rng.integers(int(resident.hash[:15], 16), resident.seed_cursor)

    def _checkpoint(self, resident: _Resident) -> None:
        self.store.save(
            snapshot_session(resident.session, seed_cursor=resident.seed_cursor)
        )
        resident.dirty = False
        self.counters.checkpoints += 1

    def checkpoint_all(self) -> int:
        """Snapshot every dirty resident; returns how many were saved."""
        saved = 0
        for resident in self._residents.values():
            if resident.dirty:
                self._checkpoint(resident)
                saved += 1
        return saved

    def _evict_one(self) -> None:
        """Evict the least-recently-used idle resident to a snapshot."""
        idle = [r for r in self._residents.values() if r.busy == 0]
        if not idle:
            self.counters.rejections += 1
            raise ServiceError(
                "admission_rejected",
                f"all {len(self._residents)} resident sessions are busy "
                f"(max_sessions={self.max_sessions})",
            )
        victim = min(idle, key=lambda r: r.last_used)
        if victim.dirty:
            self._checkpoint(victim)
        del self._residents[victim.hash]
        self.counters.evictions += 1

    def _restore_resident(self, payload: Mapping[str, Any]) -> _Resident:
        restored = restore_session(
            payload,
            verify=self.verify_restore,
            kind=None,
            **self.session_kwargs,
        )
        if restored.warm:
            self.counters.restores_warm += 1
        else:
            self.counters.restores_cold += 1
        resident = _Resident(
            session=restored.session,
            hash=payload["instance_hash"],
            seed_cursor=restored.seed_cursor,
            restored_warm=restored.warm,
        )
        self._touch(resident)
        return resident

    def _admit(self, instance: AllocationInstance) -> tuple[_Resident, bool]:
        """Admit an instance; returns ``(resident, restored)``."""
        h = instance_hash(instance)
        resident = self._residents.get(h)
        if resident is not None:
            self._touch(resident)
            return resident, False
        if len(self._residents) >= self.max_sessions:
            self._evict_one()
        payload = self.store.latest(h)
        if payload is not None:
            resident = self._restore_resident(payload)
            self._residents[h] = resident
            return resident, True
        resident = _Resident(
            session=AllocationSession(instance, **self.session_kwargs), hash=h
        )
        self._touch(resident)
        self._residents[h] = resident
        return resident, False

    def _rehydrate_all(self) -> int:
        """Startup sweep: re-admit the newest valid snapshot of every
        instance in the store (up to ``max_sessions``, newest-first)."""
        restored = 0
        for h, payload in self.store.latest_all().items():
            if len(self._residents) >= self.max_sessions:
                break
            if h not in self._residents:
                self._residents[h] = self._restore_resident(payload)
                restored += 1
        return restored

    def _resident_or_raise(self, h: Any) -> _Resident:
        if not isinstance(h, str):
            raise ServiceError("bad_request", "instance_hash must be a string")
        resident = self._residents.get(h)
        if resident is None:
            # Lazy re-admission from the store: the client may know the
            # hash from a previous process lifetime.
            payload = self.store.latest(h)
            if payload is None:
                raise ServiceError(
                    "unknown_instance", f"no resident session or snapshot for {h[:16]}"
                )
            if len(self._residents) >= self.max_sessions:
                self._evict_one()
            resident = self._restore_resident(payload)
            self._residents[h] = resident
        self._touch(resident)
        return resident

    # -- operations ------------------------------------------------------
    async def _op_open(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        from repro.graphs.io import instance_from_json

        obj = msg.get("instance")
        if not isinstance(obj, Mapping):
            raise ServiceError("bad_request", "open needs an embedded 'instance' object")
        try:
            instance = instance_from_json(json.dumps(obj))
        except (ValueError, KeyError, TypeError) as exc:
            raise ServiceError("bad_request", f"bad instance: {exc}") from exc
        resident, restored = self._admit(instance)
        self.counters.opens += 1
        return {
            "ok": True,
            "instance_hash": resident.hash,
            "restored": restored,
            "warm": resident.session.exponents_snapshot() is not None,
            "seed_cursor": resident.seed_cursor,
        }

    async def _op_solve(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        from repro.api.report import AllocationReport

        resident = self._resident_or_raise(msg.get("instance_hash"))
        req_obj = msg.get("request") or {}
        if not isinstance(req_obj, Mapping):
            raise ServiceError("bad_request", "'request' must be a JSON object")
        try:
            request = SolveRequest.from_json(req_obj)
        except (ValueError, TypeError) as exc:
            raise ServiceError("bad_request", str(exc)) from exc

        key = (resident.hash, json.dumps(req_obj, sort_keys=True))
        pending = self._inflight.get(key)
        if pending is not None:
            # Coalesce: share the in-flight solve's response verbatim.
            self.counters.coalesced += 1
            response = dict(await asyncio.shield(pending))
            response["coalesced"] = True
            return response

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        resident.busy += 1
        try:
            seed = request.seed
            solve_req = request
            if seed is None:
                seed = self._derive_seed(resident)
                resident.seed_cursor += 1
                solve_req = dataclasses.replace(request, seed=seed)
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool, resident.session.solve, solve_req
            )
            resident.dirty = True
            self.counters.solves += 1
            if self.checkpoint_on_commit:
                self._checkpoint(resident)
            response = {
                "ok": True,
                "instance_hash": resident.hash,
                "seed_used": int(seed),
                "warm_start": bool(result.meta.get("warm_start")),
                "coalesced": False,
                "report": AllocationReport.from_pipeline(result).payload,
            }
            future.set_result(response)
            return response
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Coalesced awaiters observe the same failure; don't
                # let the unretrieved-exception warning fire too.
                future.exception()
            raise
        finally:
            resident.busy -= 1
            self._inflight.pop(key, None)

    async def _op_reroll(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        from repro.api.report import AllocationReport

        resident = self._resident_or_raise(msg.get("instance_hash"))
        seed = msg.get("seed")
        resident.busy += 1
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool, lambda: resident.session.reroll_rounding(seed=seed)
            )
        except RuntimeError as exc:
            raise ServiceError("bad_request", str(exc)) from exc
        finally:
            resident.busy -= 1
        resident.dirty = True
        return {
            "ok": True,
            "instance_hash": resident.hash,
            "report": AllocationReport.from_pipeline(result).payload,
        }

    async def _op_stats(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        residents = {
            h: {
                "seed_cursor": r.seed_cursor,
                "busy": r.busy,
                "dirty": r.dirty,
                "warm": r.session.exponents_snapshot() is not None,
                "restored_warm": r.restored_warm,
                "session": r.session.stats.as_dict(),
            }
            for h, r in self._residents.items()
        }
        return {
            "ok": True,
            "counters": self.counters.as_dict(),
            "max_sessions": self.max_sessions,
            "residents": residents,
        }

    async def _op_snapshot(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        h = msg.get("instance_hash")
        if h is not None:
            resident = self._resident_or_raise(h)
            self._checkpoint(resident)
            return {"ok": True, "checkpointed": 1}
        return {"ok": True, "checkpointed": self.checkpoint_all()}

    async def _op_shutdown(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        self._stopping.set()
        return {"ok": True, "stopping": True}

    _OPS = {
        "open": _op_open,
        "solve": _op_solve,
        "reroll": _op_reroll,
        "stats": _op_stats,
        "snapshot": _op_snapshot,
        "shutdown": _op_shutdown,
    }

    async def handle_message(self, msg: Any) -> dict[str, Any]:
        """Dispatch one decoded request object to its operation."""
        try:
            if not isinstance(msg, Mapping):
                raise ServiceError("bad_request", "each line must be a JSON object")
            op = msg.get("op")
            handler = self._OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ServiceError(
                    "bad_request", f"unknown op {op!r}; known: {sorted(self._OPS)}"
                )
            return await handler(self, msg)
        except ServiceError as exc:
            return exc.as_response()
        except Exception as exc:  # pragma: no cover - defensive
            return ServiceError("internal", f"{type(exc).__name__}: {exc}").as_response()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    msg = json.loads(text)
                except json.JSONDecodeError as exc:
                    response = ServiceError(
                        "bad_request", f"invalid JSON: {exc}"
                    ).as_response()
                else:
                    response = await self.handle_message(msg)
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    async def _checkpoint_loop(self) -> None:
        assert self.checkpoint_interval is not None
        while True:
            await asyncio.sleep(self.checkpoint_interval)
            self.checkpoint_all()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "AllocationService":
        """Rehydrate from the store and start listening."""
        if self.rehydrate:
            self._rehydrate_all()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket_path.unlink(missing_ok=True)
        # Default stream limit is 64 KiB per line; an embedded instance
        # JSON (the `open` op) is routinely larger.
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path), limit=1 << 26
        )
        if self.checkpoint_interval is not None:
            self._checkpoint_task = asyncio.create_task(self._checkpoint_loop())
        return self

    async def stop(self) -> None:
        """Checkpoint every dirty resident, then stop serving."""
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            self._checkpoint_task = None
        self.checkpoint_all()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.socket_path.unlink(missing_ok=True)
        self._pool.shutdown(wait=True)

    async def serve_until_shutdown(self) -> None:
        """``start()``, run until a ``shutdown`` op (or cancellation),
        then ``stop()`` — the CLI's main coroutine."""
        await self.start()
        try:
            await self._stopping.wait()
            # Let the shutdown response flush before the socket dies.
            await asyncio.sleep(0.05)
        finally:
            await self.stop()


def run_service(service: AllocationService, *, ready_line: bool = True) -> None:
    """Blocking entry point (the ``cli serve`` subcommand).

    Prints one JSON ready line — ``{"ready": true, "socket": ...}`` —
    once the socket is listening, so a supervisor (or the recovery
    test harness) knows when to connect.
    """

    async def _main() -> None:
        await service.start()
        if ready_line:
            print(
                json.dumps(
                    {
                        "ready": True,
                        "socket": str(service.socket_path),
                        "store": str(service.store.root),
                        "residents": len(service._residents),
                    }
                ),
                flush=True,
            )
        try:
            await service._stopping.wait()
            await asyncio.sleep(0.05)
        finally:
            await service.stop()

    asyncio.run(_main())


class ServiceClient:
    """Minimal synchronous JSONL client (tests, benchmarks, scripts)."""

    def __init__(self, socket_path: Union[str, Path], *, timeout: float = 120.0):
        import socket as _socket

        self._sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(str(socket_path))
        self._buf = b""

    def call(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, block for its response line."""
        self._sock.sendall((json.dumps(msg) + "\n").encode())
        while b"\n" not in self._buf:
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("service closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line.decode())

    # Convenience wrappers mirroring the wire ops.
    def open(self, instance: AllocationInstance) -> dict[str, Any]:
        from repro.graphs.io import instance_to_json

        return self.call({"op": "open", "instance": json.loads(instance_to_json(instance))})

    def solve(self, instance_hash_hex: str, **request: Any) -> dict[str, Any]:
        return self.call(
            {"op": "solve", "instance_hash": instance_hash_hex, "request": request}
        )

    def reroll(self, instance_hash_hex: str, *, seed: Any = None) -> dict[str, Any]:
        return self.call({"op": "reroll", "instance_hash": instance_hash_hex, "seed": seed})

    def stats(self) -> dict[str, Any]:
        return self.call({"op": "stats"})

    def snapshot(self, instance_hash_hex: Optional[str] = None) -> dict[str, Any]:
        msg: dict[str, Any] = {"op": "snapshot"}
        if instance_hash_hex is not None:
            msg["instance_hash"] = instance_hash_hex
        return self.call(msg)

    def shutdown(self) -> dict[str, Any]:
        return self.call({"op": "shutdown"})

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False
