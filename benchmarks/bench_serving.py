"""Serving-layer throughput: cold loop vs resident session vs batch.

The serving shape (DESIGN.md §8): one resident graph answering a
stream of solve requests — capacity updates, ε tweaks, fresh seeds.
Three execution modes over the *same* request stream:

* ``cold_loop``   — today's path: one full :func:`solve_allocation`
  per request, every solve restarting the dynamics from ``b ≡ 0``;
* ``session``     — one :class:`~repro.serve.AllocationSession`
  solving the stream serially, each solve warm-started from the last
  converged exponent vector;
* ``batch``       — the same session serving the stream through
  :func:`~repro.serve.solve_batch` on a thread pool.

The workload graph is the paper's Theorem-9 Case-2 stress family
(``slow_spread``), where convergence genuinely costs Θ(log λ) rounds —
the regime the warm start is for.  Easy instances converge in O(1)
rounds cold and serve fast either way; this benchmark measures the
hard-graph serving story.

Run this module as a script to regenerate ``BENCH_serving.json`` at
the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py [--scale full]

The payload records per-mode wall time and requests/sec, the
session-vs-cold speedup (its floor is in ``BARS``), and the round
counts that explain it.  Warm-path certificate validity is asserted
inline; cold-path bit-parity is asserted in ``tests/test_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:  # pytest-benchmark path (optional; the script path needs neither)
    import pytest
except ImportError:  # pragma: no cover - script-only environments
    pytest = None

if not __package__:  # invoked as a script: self-contained path setup
    _root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(_root))          # for benchmarks._scale
    sys.path.insert(0, str(_root / "src"))  # for repro (no PYTHONPATH needed)
from benchmarks._scale import Bar, bench_scale, bench_script_main, cpu_info, percentile
from repro.core.pipeline import solve_allocation
from repro.graphs.generators import slow_spread_instance
from repro.serve import AllocationSession, SolveRequest, solve_stream
from repro.utils.rng import spawn

# Workload sizes: (core_right, width, n_requests, thread workers).
_SIZES = {
    "smoke": (12, 16, 6, 2),
    "normal": (24, 30, 10, 4),
    "full": (32, 40, 16, 4),
}
_EPSILON = 0.1

BARS = (Bar("session_speedup_over_cold", 2.0),)


def build_workload(scale: str):
    """The shared-graph request stream: capacity updates + ε tweaks."""
    core, width, n_requests, workers = _SIZES[scale]
    instance = slow_spread_instance(core, width=width)
    requests = []
    n_right = instance.n_right
    for i in range(n_requests):
        # Rotate small capacity bumps over the fringe (ids >= core);
        # every third request also sweeps ε — the request mix a session
        # actually sees.
        fringe = core + (7 * i) % (n_right - core)
        updates = {fringe: 2, core + (13 * i) % (n_right - core): 2}
        epsilon = 0.12 if i % 3 == 2 else None
        requests.append(
            SolveRequest(capacity_updates=updates, epsilon=epsilon)
        )
    return instance, requests, workers


def _cold_loop(instance, requests, seed) -> tuple[list, list]:
    """Today's path: full cold pipeline per request."""
    streams = spawn(seed, len(requests))
    session = AllocationSession(instance, epsilon=_EPSILON, boost=False)
    results, latencies = [], []
    for request, stream in zip(requests, streams):
        # solve_detached with no warm base is bit-identical to
        # solve_allocation on the request's instance (tests assert
        # this); routing through it keeps override handling uniform.
        t0 = time.perf_counter()
        results.append(
            session.solve_detached(request, seed=stream, initial_exponents=None)
        )
        latencies.append(time.perf_counter() - t0)
    return results, latencies

def _session_serial(instance, requests, seed):
    session = AllocationSession(instance, epsilon=_EPSILON, boost=False)
    streams = spawn(seed, len(requests))
    results, latencies = [], []
    for request, stream in zip(requests, streams):
        t0 = time.perf_counter()
        results.append(session.solve(request, seed=stream))
        latencies.append(time.perf_counter() - t0)
    return session, results, latencies


def _latency_digest(latencies) -> dict:
    """The p50/p95 shape BENCH_sharding.json also records, so the two
    payloads compare request-for-request."""
    return {
        "p50_ms": round(percentile(latencies, 50) * 1000.0, 3),
        "p95_ms": round(percentile(latencies, 95) * 1000.0, 3),
    }


def _session_batch(instance, requests, seed, workers) -> tuple[AllocationSession, list]:
    """Prime with the stream's first request, batch the rest warm."""
    session = AllocationSession(instance, epsilon=_EPSILON, boost=False)
    results = solve_stream(session, requests, seed=seed, max_workers=workers)
    return session, results


if pytest is not None:

    @pytest.fixture(scope="module")
    def workload():
        return build_workload(bench_scale())

    def test_serving_cold_loop(benchmark, workload):
        instance, requests, _ = workload
        results, _ = benchmark.pedantic(
            lambda: _cold_loop(instance, requests, seed=0), rounds=1, iterations=1
        )
        assert len(results) == len(requests)

    def test_serving_session(benchmark, workload):
        instance, requests, _ = workload
        _, results, _ = benchmark.pedantic(
            lambda: _session_serial(instance, requests, seed=0),
            rounds=1, iterations=1,
        )
        assert all(r.mpc.certificate.satisfied for r in results)

    def test_serving_batch(benchmark, workload):
        instance, requests, workers = workload
        _, results = benchmark.pedantic(
            lambda: _session_batch(instance, requests, seed=0, workers=workers),
            rounds=1, iterations=1,
        )
        assert len(results) == len(requests)


# ----------------------------------------------------------------------
# Script mode: cold vs session vs batch → BENCH_serving.json
# ----------------------------------------------------------------------
def run_serving_benchmarks(scale: str) -> dict:
    instance, requests, workers = build_workload(scale)
    n = len(requests)

    t0 = time.perf_counter()
    cold_results, cold_latencies = _cold_loop(instance, requests, seed=0)
    cold_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    session, warm_results, warm_latencies = _session_serial(
        instance, requests, seed=0
    )
    session_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    _, batch_results = _session_batch(instance, requests, seed=0, workers=workers)
    batch_seconds = time.perf_counter() - t0

    # Validity: every mode satisfied the λ-free certificate on every
    # request (the warm-path contract; solve_detached/solve also
    # re-check integral feasibility on warm solves).
    for results in (cold_results, warm_results, batch_results):
        if not all(r.mpc.certificate is not None and r.mpc.certificate.satisfied
                   for r in results):
            raise RuntimeError("a serving mode ended without a certificate")

    cold_rounds = [r.mpc.local_rounds for r in cold_results]
    warm_rounds = [r.mpc.local_rounds for r in warm_results]
    session_speedup = cold_seconds / session_seconds
    payload = {
        "benchmark": "serving: cold loop vs resident session vs parallel batch",
        "scale": scale,
        "workload": {
            "family": instance.name,
            "n_left": instance.n_left,
            "n_right": instance.n_right,
            "n_edges": instance.n_edges,
            "epsilon": _EPSILON,
            "n_requests": n,
            "batch_workers": workers,
            # Batch-vs-session scaling is bounded by the host: with one
            # CPU the thread pool can only interleave, not overlap.
            # BENCH_sharding.json records the same cpu shape, so the
            # two curves are comparable host-for-host.
            "cpu_count": os.cpu_count(),
            "cpu": cpu_info(),
        },
        "cold_loop": {
            "seconds": round(cold_seconds, 4),
            "requests_per_second": round(n / cold_seconds, 3),
            "local_rounds": cold_rounds,
            "latency": _latency_digest(cold_latencies),
        },
        "session": {
            "seconds": round(session_seconds, 4),
            "requests_per_second": round(n / session_seconds, 3),
            "local_rounds": warm_rounds,
            "warm_solves": session.stats.warm_solves,
            "cold_solves": session.stats.cold_solves,
            "latency": _latency_digest(warm_latencies),
        },
        "batch": {
            "seconds": round(batch_seconds, 4),
            "requests_per_second": round(n / batch_seconds, 3),
            "primed_then_batched": [1, n - 1],
            # Per-request latency inside the thread pool is not
            # individually observable from outside solve_stream;
            # the sharded bench records worker-side latencies instead.
            "latency": None,
        },
        "session_speedup_over_cold": round(session_speedup, 3),
        "batch_speedup_over_cold": round(cold_seconds / batch_seconds, 3),
    }
    return payload


def main(argv=None) -> None:
    bench_script_main(
        run_serving_benchmarks, "BENCH_serving.json",
        description=__doc__, scales=_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
