"""repro.serve — the heavy-traffic serving layer (DESIGN.md §8).

One resident graph answering many solve requests is the common serving
shape; this package turns the cold single-call pipeline into that
shape:

* :class:`SolveRequest` — a declarative request: ε / capacity / seed /
  stage overrides against a session's defaults.
* :class:`AllocationSession` — a resident solver per graph: cached
  :class:`~repro.kernels.RoundWorkspace`, per-graph invariants, and
  the last converged β exponent vector for warm-started solves.
* :func:`solve_batch` — thread-parallel batch execution across
  sessions with the seed-per-position determinism contract.
* :func:`replay_stream` — drive a :class:`repro.dynamic.DynamicSession`
  through a delta stream, re-solving (warm) after every event
  (DESIGN.md §9).
* :class:`ShardedExecutor` — the multi-process tier (DESIGN.md §12):
  N shard workers, one process pool each, with resident session
  fleets; requests route by the stable content hash
  :func:`instance_hash`, bit-identical to the thread path.
* :class:`AllocationService` + :mod:`repro.serve.snapshot` — the
  durable tier (DESIGN.md §14): versioned session snapshots with
  atomic persistence and certificate-verified restore, behind an
  asyncio JSONL-over-socket front end with admission control, request
  coalescing, and crash recovery.

Cold solves stay bit-identical to
:func:`repro.core.pipeline.solve_allocation`; warm solves pass the
same certificate and feasibility validation.  The stage layer the
sessions run on lives in :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

from repro.graphs.instances import instance_hash
from repro.serve.batch import solve_batch, solve_stream
from repro.serve.replay import ReplayStep, replay_stream
from repro.serve.session import (
    AllocationSession,
    SessionStats,
    SolveRequest,
    check_integral_feasible,
)
from repro.serve.snapshot import (
    SNAPSHOT_SCHEMA,
    RestoredSession,
    SnapshotStore,
    restore_dynamic,
    restore_session,
    snapshot_dynamic,
    snapshot_session,
)

# Imported last: sharding pulls in repro.api (config/report), which may
# itself be mid-import via engine → repro.serve.session; by this point
# every serve submodule it needs is already in sys.modules.
from repro.serve.service import (
    AllocationService,
    ServiceClient,
    ServiceError,
    run_service,
)
from repro.serve.sharding import ShardedExecutor, ShardReplayResult

__all__ = [
    "AllocationSession",
    "SessionStats",
    "SolveRequest",
    "check_integral_feasible",
    "solve_batch",
    "solve_stream",
    "ReplayStep",
    "replay_stream",
    "instance_hash",
    "ShardedExecutor",
    "ShardReplayResult",
    "SNAPSHOT_SCHEMA",
    "RestoredSession",
    "SnapshotStore",
    "snapshot_session",
    "snapshot_dynamic",
    "restore_session",
    "restore_dynamic",
    "AllocationService",
    "ServiceClient",
    "ServiceError",
    "run_service",
]
