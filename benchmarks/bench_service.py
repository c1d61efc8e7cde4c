"""Durable-session service: latency under concurrent load + restart warmth.

Two measurements over the :class:`~repro.serve.AllocationService`
front end (DESIGN.md §14), both on the paper's Theorem-9 Case-2
stress family (``slow_spread``) where convergence genuinely costs
Θ(log λ) rounds:

* ``concurrent_load`` — N socket clients issue capacity-update solve
  requests against one resident instance simultaneously; per-request
  wall latency is recorded client-side and digested to p50/p95/p99.
  The single solver thread serializes the heavy work, so the tail
  latencies show the queueing the admission/coalescing layer manages.
* ``restart_warmth`` — the crash-recovery bar: solve once on a fresh
  service (cold, full convergence budget), let checkpoint-on-commit
  persist the session, hard-stop the service, start a new one against
  the same store, and time the first post-restore solve.  The restored
  session re-verifies the λ-free certificate before being declared
  warm, so the first request warm-starts.  ``BARS`` holds the
  speedup over the cold first solve to a floor.

Run as a script to regenerate ``BENCH_service.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_service.py [--scale full]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if not __package__:  # invoked as a script: self-contained path setup
    _root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(_root))          # for benchmarks._scale
    sys.path.insert(0, str(_root / "src"))  # for repro (no PYTHONPATH needed)
from benchmarks._scale import Bar, bench_scale, bench_script_main, cpu_info, percentile
from repro.graphs.generators import slow_spread_instance
from repro.serve.service import AllocationService, ServiceClient
from repro.serve import instance_hash

# Workload sizes: (core_right, width, n_clients, requests_per_client).
_SIZES = {
    "smoke": (12, 16, 3, 3),
    "normal": (24, 30, 4, 5),
    "full": (32, 40, 6, 6),
}
_EPSILON = 0.1

BARS = (
    Bar("restart_warmth.restart_speedup", 3.0),
    Bar("restart_warmth.restored_warm_start", True),
    # Latencies only have to be recorded: no bar bounds them yet.
    Bar("concurrent_load.latency.p50_ms", 0.0),
    Bar("concurrent_load.latency.p95_ms", 0.0),
    Bar("concurrent_load.latency.p99_ms", 0.0),
)


def build_workload(scale: str):
    core, width, n_clients, per_client = _SIZES[scale]
    instance = slow_spread_instance(core, width=width)
    return instance, core, n_clients, per_client


def _session_kwargs() -> dict:
    return {"epsilon": _EPSILON, "boost": False}


def run_concurrent_load(scale: str) -> dict:
    """N concurrent socket clients on one resident instance."""
    instance, core, n_clients, per_client = build_workload(scale)
    n_right = instance.n_right
    store = tempfile.mkdtemp(prefix="bench_service_load_")

    async def _run():
        service = AllocationService(
            store, max_sessions=2, seed=0, session_kwargs=_session_kwargs()
        )
        await service.start()
        h = instance_hash(instance)
        sock = service.socket_path

        def client(idx: int) -> list[float]:
            latencies = []
            with ServiceClient(sock) as c:
                c.open(instance)
                for j in range(per_client):
                    # Distinct per-client fringe bumps (no coalescing):
                    # this measures queueing latency, not dedup.
                    fringe = core + (7 * idx + 13 * j) % (n_right - core)
                    t0 = time.perf_counter()
                    r = c.solve(
                        h, capacity_updates={str(fringe): 2}, seed=100 * idx + j
                    )
                    latencies.append(time.perf_counter() - t0)
                    assert r["ok"], r
            return latencies

        loop = asyncio.get_running_loop()
        t0 = time.perf_counter()
        per_client_lat = await asyncio.gather(
            *(loop.run_in_executor(None, client, i) for i in range(n_clients))
        )
        wall = time.perf_counter() - t0
        counters = service.counters.as_dict()
        await service.stop()
        return [lat for lats in per_client_lat for lat in lats], wall, counters

    latencies, wall, counters = asyncio.run(_run())
    n = len(latencies)
    return {
        "n_clients": n_clients,
        "requests_per_client": per_client,
        "n_requests": n,
        "seconds": round(wall, 4),
        "requests_per_second": round(n / wall, 3),
        "latency": {
            "p50_ms": round(percentile(latencies, 50) * 1000.0, 3),
            "p95_ms": round(percentile(latencies, 95) * 1000.0, 3),
            "p99_ms": round(percentile(latencies, 99) * 1000.0, 3),
        },
        "counters": counters,
    }


def run_restart_warmth(scale: str) -> dict:
    """Cold first solve vs first solve after restart-from-snapshot."""
    instance, core, _, _ = build_workload(scale)
    store = tempfile.mkdtemp(prefix="bench_service_warmth_")
    h = instance_hash(instance)

    async def _generation(expect_restored: bool) -> tuple[float, bool]:
        service = AllocationService(
            store,
            max_sessions=2,
            seed=0,
            checkpoint_on_commit=True,
            session_kwargs=_session_kwargs(),
        )
        await service.start()
        sock = service.socket_path
        loop = asyncio.get_running_loop()

        def first_solve() -> tuple[float, bool]:
            with ServiceClient(sock) as c:
                opened = c.open(instance)
                assert opened["warm"] == expect_restored, opened
                t0 = time.perf_counter()
                r = c.solve(h, seed=7)
                dt = time.perf_counter() - t0
                assert r["ok"], r
                return dt, bool(r["warm_start"])

        dt, warm = await loop.run_in_executor(None, first_solve)
        # stop() checkpoints dirty residents — the "deploy restart"
        # path; the SIGKILL path is exercised by the recovery tests
        # and rides on the same checkpoint-on-commit snapshots.
        await service.stop()
        return dt, warm

    cold_seconds, cold_warm = asyncio.run(_generation(expect_restored=False))
    restored_seconds, restored_warm = asyncio.run(_generation(expect_restored=True))
    assert not cold_warm and restored_warm
    speedup = cold_seconds / restored_seconds
    return {
        "cold_first_solve_ms": round(cold_seconds * 1000.0, 3),
        "restored_first_solve_ms": round(restored_seconds * 1000.0, 3),
        "restored_warm_start": restored_warm,
        "restart_speedup": round(speedup, 3),
    }


def run_service_benchmarks(scale: str) -> dict:
    instance, _, _, _ = build_workload(scale)
    load = run_concurrent_load(scale)
    warmth = run_restart_warmth(scale)
    return {
        "benchmark": "durable-session service: concurrent load + restart warmth",
        "scale": scale,
        "workload": {
            "family": instance.name,
            "n_left": instance.n_left,
            "n_right": instance.n_right,
            "n_edges": instance.n_edges,
            "epsilon": _EPSILON,
            "cpu_count": os.cpu_count(),
            "cpu": cpu_info(),
        },
        "concurrent_load": load,
        "restart_warmth": warmth,
    }


def main(argv=None) -> None:
    bench_script_main(
        run_service_benchmarks, "BENCH_service.json",
        description=__doc__, scales=_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
