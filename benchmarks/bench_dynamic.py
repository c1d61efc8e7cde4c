"""Dynamic serving: warm incremental re-solves vs cold re-solves.

The dynamic-instance story (DESIGN.md §9): a resident
:class:`~repro.dynamic.DynamicSession` replays a delta stream —
capacity drift, client churn, maintenance drains — remapping the
retained converged β exponents across every delta so each re-solve
warm-starts.  This benchmark measures that against the alternative a
static pipeline offers: apply the same delta, re-solve the new
instance cold from ``b ≡ 0``.

One workload per scenario class (:mod:`repro.dynamic.scenarios`):
diurnal capacity waves, flash-crowd arrivals, rolling maintenance
drains, adversarial churn — all over the paper's Theorem-9 Case-2
stress family (``slow_spread``), where cold convergence genuinely
costs Θ(log λ) rounds.  The diurnal workload doubles the capacity
profile so the wave has room to move (unit capacities round every wave
factor back to 1) while keeping the core over-subscribed.

Both measured paths run fully validated: the warm path asserts the
λ-free certificate and re-checks Definition-5 integral feasibility on
every solve (the ``AllocationSession`` warm contract), and the cold
path performs the same two assertions explicitly per step.  A warm
re-solve is faster, never less checked.

Run as a script to regenerate ``BENCH_dynamic.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_dynamic.py [--scale full]

The payload records per-scenario wall time, per-step round counts, and
the warm-over-cold speedup, whose floor ``BARS`` declares for every
scenario.
"""

from __future__ import annotations

import argparse
import json
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
from benchmarks._scale import Bar, bench_scale, bench_script_main
from repro.core.pipeline import solve_allocation
from repro.dynamic import SCENARIOS, DynamicSession, apply_delta
from repro.graphs.generators import slow_spread_instance
from repro.serve import replay_stream
from repro.serve.session import check_integral_feasible
from repro.utils.rng import spawn

# Workload sizes: (core_right, width, steps).
_SIZES = {
    "smoke": (10, 8, 5),
    "normal": (20, 16, 8),
    "full": (24, 24, 10),
}
_EPSILON = 0.1

BARS = (Bar("scenarios.*.warm_speedup_over_cold", 3.0),)


def build_workloads(scale: str):
    """One (instance, delta stream) per scenario class."""
    core, width, steps = _SIZES[scale]
    base = slow_spread_instance(core, width=width)
    wave_base = base.with_capacities(base.capacities * 2, suffix="x2")
    workloads = {}
    for name in sorted(SCENARIOS):
        instance = wave_base if name == "diurnal_wave" else base
        workloads[name] = (instance, SCENARIOS[name](instance, steps, seed=0))
    return workloads, steps


def _warm_replay(instance, deltas, seed):
    """The dynamic path: prime once, replay warm.  Certificate and
    Definition-5 assertions run inside every warm solve."""
    dynamic = DynamicSession(instance, epsilon=_EPSILON, boost=False)
    dynamic.resolve(seed=seed)  # prime (cold, untimed by the caller)
    t0 = time.perf_counter()
    steps = replay_stream(dynamic, deltas, seed=seed)
    seconds = time.perf_counter() - t0
    if not all(s.certified for s in steps):
        raise RuntimeError("a warm re-solve ended without a certificate")
    return dynamic, steps, seconds


def _cold_replay(instance, deltas, seed):
    """The static alternative: apply the same deltas, re-solve cold,
    with the same two assertions applied explicitly per step."""
    streams = spawn(seed, len(deltas))
    current = instance
    results = []
    t0 = time.perf_counter()
    for delta, stream in zip(deltas, streams):
        current = apply_delta(current, delta).instance
        result = solve_allocation(
            current, _EPSILON, seed=stream, boost=False
        )
        cert = result.mpc.certificate
        if cert is None or not cert.satisfied:
            raise RuntimeError("a cold re-solve ended without a certificate")
        check_integral_feasible(current, result.edge_mask)
        results.append(result)
    seconds = time.perf_counter() - t0
    return results, seconds


if pytest is not None:

    @pytest.fixture(scope="module")
    def workloads():
        return build_workloads(bench_scale())

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_dynamic_warm_replay(benchmark, workloads, scenario):
        instance, deltas = workloads[0][scenario]
        _, steps, _ = benchmark.pedantic(
            lambda: _warm_replay(instance, deltas, seed=0),
            rounds=1, iterations=1,
        )
        assert len(steps) == len(deltas)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_dynamic_cold_replay(benchmark, workloads, scenario):
        instance, deltas = workloads[0][scenario]
        results, _ = benchmark.pedantic(
            lambda: _cold_replay(instance, deltas, seed=0),
            rounds=1, iterations=1,
        )
        assert len(results) == len(deltas)


# ----------------------------------------------------------------------
# Script mode: warm vs cold per scenario → BENCH_dynamic.json
# ----------------------------------------------------------------------
def run_dynamic_benchmarks(scale: str) -> dict:
    workloads, steps = build_workloads(scale)
    scenarios = {}
    for name, (instance, deltas) in workloads.items():
        dynamic, warm_steps, warm_seconds = _warm_replay(instance, deltas, seed=0)
        cold_results, cold_seconds = _cold_replay(instance, deltas, seed=0)
        speedup = cold_seconds / warm_seconds
        scenarios[name] = {
            "workload": {
                "family": instance.name,
                "n_left": instance.n_left,
                "n_right": instance.n_right,
                "n_edges": instance.n_edges,
                "steps": len(deltas),
            },
            "warm": {
                "seconds": round(warm_seconds, 4),
                "local_rounds": [s.local_rounds for s in warm_steps],
                "warm_steps": sum(1 for s in warm_steps if s.warm_start),
                "structural_rebuilds": dynamic.stats.structural_rebuilds,
                "capacity_patches": dynamic.stats.capacity_patches,
            },
            "cold": {
                "seconds": round(cold_seconds, 4),
                "local_rounds": [r.mpc.local_rounds for r in cold_results],
            },
            "warm_speedup_over_cold": round(speedup, 3),
        }
    return {
        "benchmark": "dynamic instances: warm incremental re-solve vs cold re-solve",
        "scale": scale,
        "epsilon": _EPSILON,
        "validation": "certificate + Definition-5 feasibility asserted per "
                      "step in both measured paths",
        "scenarios": scenarios,
    }


def main(argv=None) -> None:
    bench_script_main(
        run_dynamic_benchmarks, "BENCH_dynamic.json",
        description=__doc__, scales=_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
