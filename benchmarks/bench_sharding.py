"""Sharded-serving scaling curve: process workers × request counts.

BENCH_serving.json records the GIL ceiling: batch throughput ≈
single-session throughput on a 1-CPU host, and no thread count changes
that.  This benchmark measures what the multi-process tier
(:class:`repro.serve.ShardedExecutor`, DESIGN.md §12) buys: requests
for a fleet of instances route to shard workers by instance-content
hash, each instance is pickled to its shard once, and the worker count
sweeps 1/2/4 while the request stream is held fixed.

What is recorded per (worker count, request count) cell:

* wall seconds and requests/sec for the whole batch,
* worker-side per-request solve latency p50/p95 (the same digest
  BENCH_serving.json records for the serial modes, so the two
  payloads compare request-for-request),
* a repeat of the batch against the now-warm fleet (the steady-state
  number a resident deployment sees).

Determinism is asserted inline: every worker count must return
bit-identical report payloads — the scaling curve is only meaningful
if the answers are the same answers.

The scaling bar in ``BARS`` (4 workers against the 1-worker process
baseline) applies only on a host with at least as many logical cores
as workers: with fewer, the curve is flat by construction.  The curve
is recorded either way, with the host's core count.

Run as a script to regenerate ``BENCH_sharding.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_sharding.py [--scale full]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if not __package__:  # invoked as a script: self-contained path setup
    _root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(_root))          # for benchmarks._scale
    sys.path.insert(0, str(_root / "src"))  # for repro (no PYTHONPATH needed)
from benchmarks._scale import Bar, bench_script_main, cpu_info, percentile
from repro.graphs.generators import slow_spread_instance
from repro.serve import ShardedExecutor, SolveRequest

# Workload shapes: a fleet of distinct hard instances (the Theorem-9
# Case-2 stress family, where convergence genuinely costs rounds) and
# a request stream round-robining over them.
_SIZES = {
    "smoke": dict(fleet=2, core=10, width=12, request_counts=(6,), workers=(1, 2)),
    "normal": dict(fleet=4, core=16, width=20, request_counts=(12,), workers=(1, 2, 4)),
    "full": dict(fleet=6, core=20, width=24, request_counts=(12, 24), workers=(1, 2, 4)),
}
_EPSILON = 0.1


def _four_workers_fit(payload: dict) -> bool:
    """Four workers can only outrun one on four logical cores."""
    return (
        (payload["cpu"]["logical_cores"] or 1) >= 4
        and 4 in payload["workload"]["worker_counts"]
    )


BARS = (
    Bar("determinism_bit_identical", True),
    Bar("scaling_bar.speedup_4_workers", 2.5, when=_four_workers_fit),
)


def build_fleet(scale: str):
    """Distinct instances (different core sizes → different content
    hashes) so routing actually spreads shards."""
    shape = _SIZES[scale]
    return [
        slow_spread_instance(shape["core"] + 2 * i, width=shape["width"])
        for i in range(shape["fleet"])
    ]


def build_requests(instances, n_requests: int):
    """Round-robin the fleet; rotate capacity bumps like bench_serving."""
    per_request_instances, requests = [], []
    for i in range(n_requests):
        instance = instances[i % len(instances)]
        core = instance.metadata.get("core_right", instance.n_right // 2)
        fringe_span = max(1, instance.n_right - core)
        updates = {
            core + (7 * i) % fringe_span: 2,
            core + (13 * i) % fringe_span: 2,
        }
        per_request_instances.append(instance)
        requests.append(
            SolveRequest(
                capacity_updates=updates,
                epsilon=0.12 if i % 3 == 2 else _EPSILON,
                boost=False,
            )
        )
    return per_request_instances, requests


def _digest(latencies) -> dict:
    valid = [lat for lat in latencies if lat is not None]
    return {
        "p50_ms": round(percentile(valid, 50) * 1000.0, 3),
        "p95_ms": round(percentile(valid, 95) * 1000.0, 3),
    }


def run_sharding_benchmarks(scale: str) -> dict:
    shape = _SIZES[scale]
    instances = build_fleet(scale)
    cpu = cpu_info()

    curve: list[dict] = []
    reference_payloads: dict[int, list] = {}
    for n_requests in shape["request_counts"]:
        per_request, requests = build_requests(instances, n_requests)
        for workers in shape["workers"]:
            with ShardedExecutor(workers) as executor:
                t0 = time.perf_counter()
                reports = executor.run_batch(
                    per_request, requests, seed=0, timeout=600
                )
                cold_seconds = time.perf_counter() - t0
                cold_latency = _digest(executor.last_latencies)

                # The steady-state pass: same stream against the
                # now-warm fleet (instances already sent, sessions
                # resident, exponents retained).
                t0 = time.perf_counter()
                warm_reports = executor.run_batch(
                    per_request, requests, seed=0, timeout=600
                )
                warm_seconds = time.perf_counter() - t0
                warm_latency = _digest(executor.last_latencies)

            payloads = [r.to_dict() for r in reports]
            reference = reference_payloads.setdefault(n_requests, payloads)
            if payloads != reference:
                raise RuntimeError(
                    f"determinism violation: {workers}-worker batch differs "
                    f"from the {shape['workers'][0]}-worker batch"
                )
            if not all(r.certified for r in reports):
                raise RuntimeError("a sharded solve ended uncertified")
            curve.append({
                "workers": workers,
                "n_requests": n_requests,
                "first_batch": {
                    "seconds": round(cold_seconds, 4),
                    "requests_per_second": round(n_requests / cold_seconds, 3),
                    "latency": cold_latency,
                },
                "warm_batch": {
                    "seconds": round(warm_seconds, 4),
                    "requests_per_second": round(n_requests / warm_seconds, 3),
                    "latency": warm_latency,
                },
            })

    # Scaling relative to the 1-worker process baseline, per request
    # count, on the steady-state (warm) pass.
    scaling: dict[str, dict] = {}
    for n_requests in shape["request_counts"]:
        cells = {c["workers"]: c for c in curve if c["n_requests"] == n_requests}
        base = cells[1]["warm_batch"]["seconds"] if 1 in cells else None
        if base is None:
            continue
        scaling[str(n_requests)] = {
            str(w): round(base / cells[w]["warm_batch"]["seconds"], 3)
            for w in sorted(cells)
        }

    speedup_4 = None
    if any(c["workers"] == 4 for c in curve):
        # the largest request count is the representative cell
        n_rep = str(max(shape["request_counts"]))
        speedup_4 = scaling.get(n_rep, {}).get("4")

    return {
        "benchmark": "sharded serving: process-worker scaling curve",
        "scale": scale,
        "workload": {
            "fleet": [
                {"name": inst.name, "n_left": inst.n_left,
                 "n_right": inst.n_right, "n_edges": inst.n_edges}
                for inst in instances
            ],
            "epsilon": _EPSILON,
            "request_counts": list(shape["request_counts"]),
            "worker_counts": list(shape["workers"]),
            "cpu": cpu,
        },
        "curve": curve,
        "scaling_vs_1_worker": scaling,
        "determinism_bit_identical": True,  # asserted above, per cell
        "scaling_bar": {"speedup_4_workers": speedup_4},
    }


def main(argv=None) -> None:
    bench_script_main(
        run_sharding_benchmarks, "BENCH_sharding.json",
        description=__doc__, scales=_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
