"""Versioned session snapshots with durable, torn-write-safe storage.

The serving layer's warm state — the converged β exponent vector, the
retained fractional solve, the seed cursor — is process-lifetime in
:class:`~repro.serve.AllocationSession`.  This module extends the
:class:`~repro.api.AllocationReport` to_json/from_json discipline to
*full session state* (DESIGN.md §14):

* :func:`snapshot_session` / :func:`snapshot_dynamic` capture a
  session as one pure-JSON payload under the versioned schema tag
  ``repro.serve/SessionSnapshot/v1``.  The payload embeds the solved
  instance itself (``repro.graphs.io`` format), so a restart can
  rehydrate a session knowing nothing but the store directory.
* :func:`restore_session` / :func:`restore_dynamic` rebuild a resident
  session from a payload.  Restore is *verified*: before the session
  is declared warm, the restored exponents are re-run through a
  throwaway :class:`~repro.core.proportional.ProportionalRun` until
  the λ-free certificate fires — a vector that cannot re-certify
  within a small round cap is discarded and the session comes up cold
  (never wrong, at worst slower).
* :class:`SnapshotStore` persists payloads under a store directory
  with write-to-temp + :func:`os.replace`, so a crash mid-write leaves
  at worst a torn temp file, never a torn snapshot.  ``latest`` skips
  torn JSON and stale schema versions and falls back to the newest
  *valid* file — corrupt state degrades to cold, it does not crash
  the service.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import numpy as np

from repro.graphs.instances import instance_hash
from repro.graphs.io import instance_from_json, instance_to_json
from repro.serve.session import AllocationSession

__all__ = [
    "SNAPSHOT_SCHEMA",
    "RestoredSession",
    "snapshot_session",
    "snapshot_dynamic",
    "restore_session",
    "restore_dynamic",
    "SnapshotStore",
]

SNAPSHOT_SCHEMA = "repro.serve/SessionSnapshot/v1"

_KINDS = ("allocation", "dynamic")

# Round cap for restore-time certificate re-verification.  A genuinely
# converged vector re-certifies in a phase or two; the cap only bounds
# how long a *stale* vector can stall the restore before the cold
# fallback takes over.
VERIFY_ROUND_CAP = 64


def _report_payload(result) -> dict[str, Any]:
    from repro.api.report import AllocationReport

    return AllocationReport.from_pipeline(result).payload


def snapshot_session(
    session: AllocationSession,
    *,
    seed_cursor: int = 0,
    kind: str = "allocation",
) -> dict[str, Any]:
    """Capture one session as a pure-JSON snapshot payload.

    ``seed_cursor`` is the service-layer count of seedless requests
    already answered on this instance — persisting it is what makes
    the i-th derived seed survive a restart (DESIGN.md §14).
    """
    if kind not in _KINDS:
        raise ValueError(f"snapshot kind must be one of {list(_KINDS)}, got {kind!r}")
    exponents = session.exponents_snapshot()
    last = session.last_result
    payload: dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA,
        "kind": kind,
        "instance_hash": instance_hash(session.instance),
        "instance": json.loads(instance_to_json(session.instance)),
        "epsilon": session.epsilon,
        "exponents": None if exponents is None else exponents.tolist(),
        "seed_cursor": int(seed_cursor),
        "stats": session.stats.as_dict(),
        "last_report": None,
        "fractional_x": None,
        "solved_capacities": None,
    }
    if last is not None:
        payload["last_report"] = _report_payload(last)
        # The retained fractional solve — what reroll_rounding rounds
        # against.  Pipeline-kind reports drop x by design; a snapshot
        # must keep it or the re-roll capability dies with the process.
        payload["fractional_x"] = last.mpc.allocation.x.tolist()
        solved = last.instance if last.instance is not None else session.instance
        if not np.array_equal(solved.capacities, session.instance.capacities):
            payload["solved_capacities"] = solved.capacities.tolist()
    return payload


def snapshot_dynamic(dsession, *, seed_cursor: int = 0) -> dict[str, Any]:
    """Capture a :class:`~repro.dynamic.DynamicSession` (the current
    generation's inner session plus the dynamic counters)."""
    payload = snapshot_session(
        dsession.session, seed_cursor=seed_cursor, kind="dynamic"
    )
    payload["dynamic_stats"] = dsession.stats.as_dict()
    return payload


def _rebuild_last_result(payload: Mapping[str, Any], instance):
    """Reconstruct a detached :class:`PipelineResult` from the snapshot.

    The rebuilt result carries exactly what the session's serving
    surfaces consume across a restart — the solved instance, the
    effective-config ``meta``, and an :class:`MPCResult` whose
    fractional allocation backs ``reroll_rounding``.  Audit-only
    intermediates that the report schema does not keep (the pre-drop
    sample, heavy-vertex masks, the boost stage object) come back
    empty; they describe *how* the original rounding went, not state
    any later request reads.
    """
    from repro.api.report import AllocationReport
    from repro.core.fractional import FractionalAllocation
    from repro.core.mpc_driver import MPCResult
    from repro.core.pipeline import PipelineResult
    from repro.rounding.sampling import RoundingOutcome

    report = AllocationReport.from_dict(payload["last_report"])
    x = np.asarray(payload["fractional_x"], dtype=np.float64)
    edge_mask = report.edge_mask
    assert edge_mask is not None
    meta = report.meta
    mpc = MPCResult(
        allocation=FractionalAllocation(x),
        match_weight=report.match_weight,
        local_rounds=report.local_rounds,
        mpc_rounds=report.mpc_rounds,
        ledger=report.round_ledger,
        certificate=report.certificate,
        guarantee=report.guarantee,
        epsilon=report.epsilon,
        meta=dict(meta),
        final_exponents=report.final_exponents,
    )
    size = report.size
    assert size is not None
    n = edge_mask.shape[0]
    rounding = RoundingOutcome(
        edge_mask=edge_mask.copy(),
        sampled_mask=np.zeros(n, dtype=bool),
        heavy_left=np.zeros(0, dtype=np.int64),
        heavy_right=np.zeros(0, dtype=np.int64),
    )
    solved = instance
    if payload.get("solved_capacities") is not None:
        solved = instance.with_capacities(
            np.asarray(payload["solved_capacities"], dtype=np.int64)
        )
    return PipelineResult(
        edge_mask=edge_mask,
        size=size,
        mpc=mpc,
        rounding=rounding,
        boosting=None,
        repaired_size=size,
        meta=dict(meta),
        stage_records=report.stage_records,
        instance=solved,
    )


def verify_exponents(
    instance,
    exponents: np.ndarray,
    epsilon: float,
    *,
    round_cap: int = VERIFY_ROUND_CAP,
    workspace=None,
) -> bool:
    """Re-verify a restored β vector against the λ-free certificate.

    A stored certificate cannot be trusted across a restart — the file
    may have been copied between instances, hand-edited, or written by
    a buggier past version.  Instead of trusting it, run the actual
    proportional dynamics from the restored vector on a *throwaway*
    run until :func:`~repro.core.termination.evaluate_certificate`
    fires.  A converged vector certifies within a phase or two; one
    that cannot certify within ``round_cap`` rounds is not warm state.
    The throwaway run never touches session state, so restore-then-
    solve stays bit-identical to never-snapshotted execution.
    """
    from repro.core.proportional import ProportionalRun
    from repro.core.termination import evaluate_certificate

    try:
        run = ProportionalRun(
            instance.graph,
            instance.capacities,
            epsilon,
            workspace=workspace,
            initial_exponents=exponents,
        )
    except (ValueError, TypeError):
        return False
    for _ in range(max(1, int(round_cap))):
        run.step()
        if evaluate_certificate(run).satisfied:
            return True
    return False


@dataclass
class RestoredSession:
    """Outcome of a restore: the rebuilt session plus what survived."""

    session: Any                      # AllocationSession or DynamicSession
    seed_cursor: int
    warm: bool                        # exponents installed and verified
    reason: Optional[str] = None      # why the restore fell back to cold

    @property
    def instance_hash(self) -> str:
        sess = getattr(self.session, "session", self.session)
        return instance_hash(sess.instance)


def _check_payload(payload: Mapping[str, Any], expected_kind: Optional[str]) -> None:
    schema = payload.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"unsupported snapshot schema {schema!r}; expected {SNAPSHOT_SCHEMA!r}"
        )
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"snapshot kind must be one of {list(_KINDS)}, got {kind!r}")
    if expected_kind is not None and kind != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} snapshot, got {kind!r}")


def restore_session(
    payload: Mapping[str, Any],
    *,
    verify: bool = True,
    verify_round_cap: int = VERIFY_ROUND_CAP,
    kind: Optional[str] = "allocation",
    **session_kwargs: Any,
) -> RestoredSession:
    """Rebuild an :class:`AllocationSession` from a snapshot payload.

    The instance comes from the payload itself; ``session_kwargs`` are
    the solver defaults (epsilon, repair, boost, …) for the rebuilt
    session, exactly as they would be passed to the constructor.  With
    ``verify=True`` (the default) the restored exponents must pass
    :func:`verify_exponents` before the session is declared warm; any
    failure — bad vector shape, certificate never firing, a corrupt
    retained result — downgrades to a cold session rather than
    raising.
    """
    _check_payload(payload, kind)
    instance = instance_from_json(json.dumps(payload["instance"]))
    session_kwargs.setdefault("epsilon", payload.get("epsilon", 0.2))
    session = AllocationSession(instance, **session_kwargs)
    seed_cursor = int(payload.get("seed_cursor", 0))
    stats = payload.get("stats")

    exps = payload.get("exponents")
    if exps is None:
        session.restore_state(None, stats=stats)
        return RestoredSession(session, seed_cursor, warm=False, reason="no warm state")

    exponents = np.asarray(exps, dtype=np.int64)
    if exponents.shape != (instance.graph.n_right,):
        session.restore_state(None, stats=stats)
        return RestoredSession(
            session, seed_cursor, warm=False, reason="exponent shape mismatch"
        )
    if verify and not verify_exponents(
        instance,
        exponents,
        session.epsilon,
        round_cap=verify_round_cap,
        workspace=session.workspace,
    ):
        session.restore_state(None, stats=stats)
        return RestoredSession(
            session, seed_cursor, warm=False, reason="certificate re-verification failed"
        )

    last_result = None
    if payload.get("last_report") is not None and payload.get("fractional_x") is not None:
        try:
            last_result = _rebuild_last_result(payload, instance)
        except (KeyError, ValueError, TypeError):
            last_result = None  # warm exponents still stand; only re-roll is lost
    session.restore_state(exponents, last_result=last_result, stats=stats)
    return RestoredSession(session, seed_cursor, warm=True)


def restore_dynamic(
    payload: Mapping[str, Any],
    *,
    verify: bool = True,
    verify_round_cap: int = VERIFY_ROUND_CAP,
    **session_kwargs: Any,
) -> RestoredSession:
    """Rebuild a :class:`~repro.dynamic.DynamicSession` from a
    ``kind="dynamic"`` snapshot (current generation + counters)."""
    from repro.dynamic.session import DynamicSession

    _check_payload(payload, "dynamic")
    inner = restore_session(
        payload,
        verify=verify,
        verify_round_cap=verify_round_cap,
        kind="dynamic",
        **session_kwargs,
    )
    dsession = DynamicSession(inner.session.instance, **session_kwargs)
    # Adopt the fully-restored inner session (warm state, retained
    # result, counters) instead of the constructor's cold one.
    dsession.session = inner.session
    dstats = payload.get("dynamic_stats")
    if dstats:
        for name in dsession.stats.as_dict():
            if name in dstats:
                setattr(dsession.stats, name, int(dstats[name]))
    return RestoredSession(dsession, inner.seed_cursor, inner.warm, inner.reason)


class SnapshotStore:
    """Durable snapshot files under one store directory.

    Files are named ``{instance_hash[:16]}-{seq:010d}.json`` — the
    sequence number increases per save, so the newest snapshot of an
    instance sorts last lexicographically.  Writes go to a ``.tmp``
    sibling first and land via :func:`os.replace`, so readers never
    observe a partially-written snapshot under its final name.  Reads
    are defensive: torn JSON (a crashed writer on a non-atomic
    filesystem, a truncated copy) and files carrying a different
    schema version are *skipped*, falling back to the next-newest
    valid file — and to ``None`` (cold start) when nothing valid
    remains.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _files_for(self, hash_prefix: str) -> list[Path]:
        return sorted(self.root.glob(f"{hash_prefix}-*.json"))

    def save(self, payload: Mapping[str, Any]) -> Path:
        """Persist one snapshot payload atomically; returns its path."""
        _check_payload(payload, None)
        prefix = str(payload["instance_hash"])[:16]
        existing = self._files_for(prefix)
        seq = 0
        if existing:
            try:
                seq = int(existing[-1].stem.rsplit("-", 1)[1]) + 1
            except (IndexError, ValueError):
                seq = len(existing)
        path = self.root / f"{prefix}-{seq:010d}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        return path

    def _load_valid(self, path: Path) -> Optional[dict[str, Any]]:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # torn or unreadable — skip
        if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
            return None  # stale or foreign schema — skip
        return payload

    def latest(self, instance_hash_hex: str) -> Optional[dict[str, Any]]:
        """Newest *valid* snapshot payload for an instance hash, or
        ``None`` when every candidate is torn/stale/absent."""
        for path in reversed(self._files_for(instance_hash_hex[:16])):
            payload = self._load_valid(path)
            if payload is not None:
                return payload
        return None

    def latest_all(self) -> dict[str, dict[str, Any]]:
        """Newest valid payload per instance hash in the store — the
        restart-rehydration sweep."""
        by_prefix: dict[str, dict[str, Any]] = {}
        for path in sorted(self.root.glob("*-*.json")):
            prefix = path.stem.rsplit("-", 1)[0]
            payload = self._load_valid(path)
            if payload is not None:
                by_prefix[prefix] = payload  # sorted order: later wins
        return {p["instance_hash"]: p for p in by_prefix.values()}

    def prune(self, *, keep: int = 2) -> int:
        """Delete all but the ``keep`` newest files per instance;
        returns the number removed."""
        removed = 0
        prefixes = {p.stem.rsplit("-", 1)[0] for p in self.root.glob("*-*.json")}
        for prefix in prefixes:
            for path in self._files_for(prefix)[:-keep] if keep > 0 else self._files_for(prefix):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
