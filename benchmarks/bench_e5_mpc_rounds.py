"""E5 — MPC rounds and space vs arboricity (Theorem 3/10).

The pytest path runs the registered E5 experiment once under the
benchmark timer.  Run this module as a script (mirroring
``bench_kernels.py``) to record the faithful-vs-simulate round ledger
at the larger faithful scales the columnar cluster unlocks, writing
``BENCH_e5_mpc_rounds.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_e5_mpc_rounds.py [--scale full]

For each instance the JSON holds both modes' per-category round
ledgers (they must agree — faithful mode *executes* the schedule that
simulate mode charges) and the peak per-machine words against the
``S``-word budget.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if not __package__:  # invoked as a script: self-contained path setup
    _root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(_root))          # for benchmarks._scale
    sys.path.insert(0, str(_root / "src"))  # for repro (no PYTHONPATH needed)
try:
    import pytest
except ImportError:  # pragma: no cover - script-only environments
    pytest = None

from benchmarks._scale import Bar, bench_script_main


if pytest is not None:
    from benchmarks.conftest import run_experiment_once

    def test_e5_mpc_rounds(benchmark, scale):
        table = run_experiment_once(benchmark, "e5", scale)
        sim = [r for r in table.rows if r["mode"] == "simulate"]
        # Who wins: measured MPC rounds beat the AZM18 bill at every λ.
        assert all(r["mpc_rounds"] < r["azm18_rounds"] for r in sim)
        # The driver can stop early via the certificate, never late.
        assert all(r["mpc_rounds"] <= r["model_predicted"] for r in sim)
        # Faithful row: space budget respected.
        faithful = [r for r in table.rows if r["mode"] == "faithful"]
        assert faithful
        assert faithful[0]["space_violations"] == 0
        assert faithful[0]["peak_machine_words"] <= faithful[0]["machine_budget_words"]
        # Adaptive rows: same budget respected, trajectory audited.
        adaptive = [r for r in table.rows if r["mode"] == "faithful(adaptive)"]
        assert adaptive
        assert all(r["space_violations"] == 0 for r in adaptive)
        assert all(r["certificate_crosscheck"] for r in adaptive)
        assert all(r["budget_trajectory"] for r in adaptive)


# ----------------------------------------------------------------------
# Script mode: faithful vs simulate round ledgers → BENCH_e5_mpc_rounds.json
# ----------------------------------------------------------------------
# One source of truth for the faithful ladder and constants: the E5
# experiment itself — this script records the same instances.
from repro.experiments.exp_mpc_rounds import ALPHA, EPSILON, _FAITHFUL_SIZES

_SAMPLE_BUDGET = 6

# The paper-facing bar: with every machine held to S = O(n^α) words,
# the faithful run returns the simulated dynamics' allocation.
BARS = (
    Bar("instances.*.allocations_match", True),
    Bar("instances.*.space_violations", ceiling=0),
)


def run_round_ledger_benchmarks(scale: str) -> dict:
    import numpy as np

    from repro.core.mpc_driver import solve_allocation_mpc
    from repro.graphs.generators import union_of_forests

    rows = []
    for n, slack in _FAITHFUL_SIZES[scale]:
        inst = union_of_forests(n, n, 2, capacity=2, seed=0)
        t0 = time.perf_counter()
        faithful = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=2, mode="faithful", seed=0,
            sample_budget=_SAMPLE_BUDGET, space_slack=slack,
        )
        t_faithful = time.perf_counter() - t0
        simulate = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=2, mode="simulate", sampler="keyed",
            seed=0, sample_budget=_SAMPLE_BUDGET,
        )
        adaptive = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=2, mode="faithful", seed=0,
            sample_budget=_SAMPLE_BUDGET, space_slack=slack,
            budget_policy="adaptive",
        )
        if faithful.ledger.violations or adaptive.ledger.violations:
            # must survive python -O
            raise RuntimeError(f"space violations at n={n}: refusing to record")
        rows.append(
            {
                "n": n,
                "m": inst.graph.n_edges,
                "sample_budget": _SAMPLE_BUDGET,
                "space_slack": slack,
                "machine_budget_words": int(slack * inst.graph.n_vertices**ALPHA),
                "peak_machine_words": faithful.ledger.peak_machine_words,
                "peak_global_words": faithful.ledger.peak_global_words,
                "peak_routed_records": faithful.ledger.peak_routed_records,
                "space_violations": len(faithful.ledger.violations),
                "faithful_rounds_by_category": faithful.ledger.by_category,
                "simulate_rounds_by_category": simulate.ledger.by_category,
                "faithful_mpc_rounds": faithful.mpc_rounds,
                "simulate_mpc_rounds": simulate.mpc_rounds,
                "local_rounds": faithful.local_rounds,
                "allocations_match": bool(
                    np.array_equal(faithful.allocation.x, simulate.allocation.x)
                ),
                "faithful_seconds": round(t_faithful, 4),
                # The adaptive budget policy on the same instance: peak
                # words and the audited per-phase throttle trajectory
                # (DESIGN.md §13).
                "adaptive_peak_machine_words": adaptive.ledger.peak_machine_words,
                "adaptive_certificate_crosscheck": bool(
                    adaptive.meta["certificate_crosscheck"]
                ),
                "adaptive_trajectory": [
                    {
                        "phase": r["phase"],
                        "budget": r["sample_budget"],
                        "decision": r["decision"],
                        "accepted": r["accepted"],
                        "predicted_peak_words": r["predicted_peak_words"],
                        "observed_peak_words": r["observed_peak_words"],
                    }
                    for r in adaptive.ledger.trajectory
                ],
            }
        )
    return {
        "benchmark": "E5 faithful-vs-simulate round ledgers",
        "scale": scale,
        "epsilon": EPSILON,
        "alpha": ALPHA,
        "instances": rows,
    }


def main(argv=None) -> None:
    bench_script_main(
        run_round_ledger_benchmarks, "BENCH_e5_mpc_rounds.json",
        description=__doc__, scales=_FAITHFUL_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
