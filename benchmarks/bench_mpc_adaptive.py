"""Benchmark of adaptive budget throttling on the faithful MPC path.

The faithful driver enforces ``S = O(n^α)`` words per machine
strictly; a fixed per-round sample budget therefore caps the largest
instance that *completes* — one skewed phase over ``S`` raises
:class:`~repro.mpc.SpaceViolation` and kills the run.  The
adaptive policy (DESIGN.md §13) throttles the budget per phase against
a safety fraction of ``S`` instead, so the same cap budget should push
the "largest runnable n" frontier out by a multiple.

This benchmark measures that frontier directly on the stress family
built for it (:func:`repro.graphs.generators.skew_frontier_instance`:
a right-side hub whose exploration load scales with the sampled hub
degree, hence with the budget).  Both arms share one *absolute* space
budget ``S`` (the slack is rescaled per instance so every machine has
the same number of words regardless of n) and the same budget cap:

* **fixed arm** — ``budget_policy="fixed"`` at the cap budget, walked
  up an n-ladder until the first :class:`SpaceViolation`;
* **adaptive arm** — ``budget_policy="adaptive"`` with the same cap,
  walked up a ladder extending well past the fixed frontier.

The bar, declared in ``BARS``: the adaptive arm must complete at
``_FRONTIER_THRESHOLD`` times the largest violation-free fixed-budget
n.  Every adaptive run must also pass the driver's certificate
crosscheck (the Theorem-2 certificate computed over the accounted
cluster equals the host-side recomputation) — a frontier reached by a
wrong answer is worthless.  Adaptive peak
machine words are additionally recorded against n so the tests can
assert they grow *sublinearly* (the throttle keeps load near the
safety band instead of tracking instance size).

Run as a script to regenerate ``BENCH_mpc_adaptive.json``::

    PYTHONPATH=src python benchmarks/bench_mpc_adaptive.py [--scale smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

try:  # pytest-benchmark path (optional; the script path needs neither)
    import pytest
except ImportError:  # pragma: no cover - script-only environments
    pytest = None

if not __package__:  # invoked as a script: self-contained path setup
    _root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(_root))          # for benchmarks._scale
    sys.path.insert(0, str(_root / "src"))  # for repro (no PYTHONPATH needed)
from benchmarks._scale import Bar, bench_scale, bench_script_main, cpu_info
from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import skew_frontier_instance
from repro.mpc import SpaceViolation

_EPS = 0.2
_ALPHA = 0.5
_LAM = 4                 # the family certifies λ ≤ 12; λ=4 is the known guess
_BUDGET_CAP = 6          # shared by both arms: fixed budget == adaptive cap
_S_TARGET = 16384        # absolute words/machine, identical across the ladder
_SAFETY = 0.8
_FRONTIER_THRESHOLD = 4.0
_SEED = 0

BARS = (
    Bar("frontier_ratio", _FRONTIER_THRESHOLD),
    Bar("certificates_bit_checked", True),
)

# The fixed arm violates at n=48 under _S_TARGET (hub load at budget 6
# exceeds S); ladders above it only matter for the adaptive arm.
_FIXED_NS = [16, 24, 32, 48]
_ADAPTIVE_NS = {
    "smoke": [64, 128],
    "normal": [64, 128, 256],
    "full": [64, 128, 256, 512],
}


def _solve(instance, *, policy: str):
    """One faithful solve at the shared absolute S and budget cap."""
    nv = instance.graph.n_vertices
    kwargs = dict(
        lam=_LAM, mode="faithful", seed=_SEED, sample_budget=_BUDGET_CAP,
        alpha=_ALPHA, block_override=1,
        space_slack=_S_TARGET / nv ** _ALPHA,
        budget_policy=policy,
    )
    if policy == "adaptive":
        kwargs["safety_fraction"] = _SAFETY
    return solve_allocation_mpc(instance, _EPS, **kwargs)


def _base_row(instance, result, seconds: float) -> dict:
    g = instance.graph
    return {
        "n_left": int(instance.metadata["n_left"]),
        "n_vertices": g.n_vertices,
        "n_edges": g.n_edges,
        "s_words": max(16, int((_S_TARGET / g.n_vertices ** _ALPHA)
                               * g.n_vertices ** _ALPHA)),
        "completed": result is not None,
        "seconds": round(seconds, 4),
    }


def _run_fixed(n: int) -> dict:
    instance = skew_frontier_instance(n, seed=_SEED)
    t0 = time.perf_counter()
    try:
        result = _solve(instance, policy="fixed")
    except SpaceViolation as exc:
        row = _base_row(instance, None, time.perf_counter() - t0)
        row["violation"] = str(exc)
        return row
    row = _base_row(instance, result, time.perf_counter() - t0)
    row.update(
        violation=None,
        mpc_rounds=result.mpc_rounds,
        peak_machine_words=result.ledger.peak_machine_words,
    )
    return row


def _run_adaptive(n: int) -> tuple[dict, object]:
    instance = skew_frontier_instance(n, seed=_SEED)
    t0 = time.perf_counter()
    result = _solve(instance, policy="adaptive")  # a violation here is fatal
    seconds = time.perf_counter() - t0
    trajectory = result.ledger.trajectory
    accepted = [row for row in trajectory if row["accepted"]]
    budgets = [row["sample_budget"] for row in accepted]
    row = _base_row(instance, result, seconds)
    row.update(
        mpc_rounds=result.mpc_rounds,
        peak_machine_words=result.ledger.peak_machine_words,
        phases=result.ledger.phases,
        decisions=dict(Counter(r["decision"] for r in trajectory)),
        discarded_attempts=sum(1 for r in trajectory if not r["accepted"]),
        budget_min=min(budgets),
        budget_max=max(budgets),
        payload_words_p99_max=max(r["payload_words_p99"] for r in accepted),
        routing_skew_max=round(max(r["routing_skew"] for r in accepted), 3),
        certificate_crosscheck=bool(result.meta["certificate_crosscheck"]),
    )
    return row, result


def run_adaptive_benchmarks(scale: str) -> dict:
    fixed_rows = [_run_fixed(n) for n in _FIXED_NS]
    completed = [r["n_left"] for r in fixed_rows if r["completed"]]
    violated = [r["n_left"] for r in fixed_rows if not r["completed"]]
    if not completed or not violated:  # must survive python -O
        raise RuntimeError(
            "fixed-budget ladder must bracket the frontier (needs at least "
            f"one completion and one violation; got {fixed_rows!r})"
        )
    largest_fixed_n = max(completed)

    adaptive_rows = []
    for n in _ADAPTIVE_NS[scale]:
        row, _ = _run_adaptive(n)
        adaptive_rows.append(row)
    largest_adaptive_n = max(r["n_left"] for r in adaptive_rows)

    # Sublinearity evidence: log-log slope of adaptive peak machine
    # words against n_vertices (tests assert < 1; the throttle keeps
    # peaks near safety_fraction·S instead of tracking instance size).
    xs = [math.log(r["n_vertices"]) for r in adaptive_rows]
    ys = [math.log(r["peak_machine_words"]) for r in adaptive_rows]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0

    certificates_ok = all(r["certificate_crosscheck"] for r in adaptive_rows)

    frontier_ratio = largest_adaptive_n / largest_fixed_n
    met = frontier_ratio >= _FRONTIER_THRESHOLD and certificates_ok
    if not met:  # must survive python -O
        raise RuntimeError(
            f"adaptive frontier bar missed: ratio {frontier_ratio:.2f} "
            f"(threshold {_FRONTIER_THRESHOLD}), "
            f"certificates_ok={certificates_ok}"
        )
    return {
        "benchmark": "MPC adaptive budget throttling: runnable-n frontier",
        "scale": scale,
        "family": "skew_frontier",
        "s_words_target": _S_TARGET,
        "alpha": _ALPHA,
        "lam": _LAM,
        "sample_budget_cap": _BUDGET_CAP,
        "safety_fraction": _SAFETY,
        "fixed_runs": fixed_rows,
        "adaptive_runs": adaptive_rows,
        "largest_fixed_n": largest_fixed_n,
        "first_fixed_violation_n": min(violated),
        "largest_adaptive_n": largest_adaptive_n,
        "frontier_ratio": round(frontier_ratio, 3),
        "adaptive_peak_words_slope": round(slope, 4),
        "adaptive_peaks_sublinear": slope < 1.0,
        "certificates_bit_checked": certificates_ok,
        "cpu": cpu_info(),
    }


if pytest is not None:

    def test_fixed_arm_inside_frontier(benchmark):
        """The fixed arm at the last violation-free ladder size."""
        row = benchmark.pedantic(lambda: _run_fixed(32), rounds=1, iterations=1)
        assert row["completed"] and row["violation"] is None

    def test_adaptive_arm_past_frontier(benchmark):
        """The adaptive arm at the scale's largest ladder size."""
        n = _ADAPTIVE_NS[bench_scale()][-1]
        row, result = benchmark.pedantic(
            lambda: _run_adaptive(n), rounds=1, iterations=1
        )
        assert result.ledger.violations == []
        assert row["certificate_crosscheck"]


def main(argv=None) -> None:
    bench_script_main(
        run_adaptive_benchmarks, "BENCH_mpc_adaptive.json",
        description=__doc__, scales=_ADAPTIVE_NS, argv=argv,
    )


if __name__ == "__main__":
    main()
