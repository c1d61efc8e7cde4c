"""Benchmarks of the MPC substrate: object vs columnar (DESIGN.md §7).

Faithful mode is the only path that actually enforces the model's
space/traffic budgets; the columnar substrate is what lets it reach
real instance sizes.  This module measures both faithful paths —

* the round-for-round direct simulation
  (:func:`repro.mpc.simulation.simulate_local_rounds_on_cluster`),
  whose three accounted exchanges per dynamics round are the
  substrate's bulk-routing hot loop, and
* the full Theorem-3 driver in ``mode="faithful"``.

Every timing is only recorded after asserting substrate parity
(identical round ledgers, bit-identical β/allocations) — a benchmark
of a wrong answer is worthless.  Run as a script to regenerate
``BENCH_mpc_substrate.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_mpc_substrate.py [--scale full]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
from benchmarks._scale import Bar, bench_scale, bench_script_main
from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import union_of_forests
from repro.mpc.cluster import MPCCluster
from repro.mpc.columnar import ColumnarCluster
from repro.mpc.simulation import simulate_local_rounds_on_cluster

# Direct-simulation instance widths per scale (n_left = n_right = n).
_SIZES = {
    "smoke": [120],
    "normal": [200, 800],
    "full": [200, 800, 2400],
}
_TAU = 8
_EPS = 0.2
# Faithful-driver instance sizes per scale; the slack scales with the
# ball volume so the S-budget stays feasible (zero violations required).
_DRIVER_N = {"smoke": 16, "normal": 32, "full": 48}
_DRIVER_SLACK = {"smoke": 512.0, "normal": 512.0, "full": 1024.0}

_N = _SIZES[bench_scale()][-1]  # pytest path benchmarks the scale's largest size

BARS = (Bar("columnar_beats_object", True), Bar("parity_checked", True))


def _ledger(cluster) -> list[tuple]:
    return [
        (r.round_index, r.label, r.total_words_moved, r.max_sent, r.max_received)
        for r in cluster.round_log
    ]


def _direct_once(instance, substrate: str):
    g = instance.graph
    total_words = 8 * (g.n_edges + g.n_vertices) + 16
    words = max(16, int(64.0 * max(2, g.n_vertices) ** 0.5))
    n_machines = max(1, -(-2 * total_words // words))
    cluster = (
        ColumnarCluster(n_machines, words)
        if substrate == "columnar"
        else MPCCluster(n_machines, words)
    )
    t0 = time.perf_counter()
    res = simulate_local_rounds_on_cluster(
        g, instance.capacities, _EPS, tau=_TAU, cluster=cluster
    )
    return time.perf_counter() - t0, res, cluster


if pytest is not None:

    @pytest.fixture(scope="module")
    def instance():
        return union_of_forests(_N, _N, 3, capacity=2, seed=0)

    @pytest.mark.parametrize("substrate", ["object", "columnar"])
    def test_direct_simulation_by_substrate(benchmark, instance, substrate):
        """The three-exchange dynamics round under each substrate."""
        elapsed, res, _ = benchmark.pedantic(
            lambda: _direct_once(instance, substrate), rounds=1, iterations=1
        )
        assert res.violations == []
        assert res.mpc_rounds == 3 * _TAU

    @pytest.mark.parametrize("substrate", ["object", "columnar"])
    def test_faithful_driver_by_substrate(benchmark, substrate):
        """The Theorem-3 driver in faithful mode under each substrate."""
        n = _DRIVER_N[bench_scale()]
        inst = union_of_forests(n, n, 2, capacity=2, seed=0)
        res = benchmark.pedantic(
            lambda: solve_allocation_mpc(
                inst, _EPS, lam=2, mode="faithful", seed=0, sample_budget=6,
                space_slack=_DRIVER_SLACK[bench_scale()], substrate=substrate,
            ),
            rounds=1,
            iterations=1,
        )
        assert res.ledger.violations == []


# ----------------------------------------------------------------------
# Script mode: object vs columnar substrate → BENCH_mpc_substrate.json
# ----------------------------------------------------------------------
def _assert_direct_parity(res_o, cl_o, res_c, cl_c, n: int) -> None:
    if not (
        np.array_equal(res_o.beta_exp, res_c.beta_exp)
        and np.array_equal(res_o.alloc, res_c.alloc)
        and _ledger(cl_o) == _ledger(cl_c)
    ):  # must survive python -O
        raise RuntimeError(
            f"substrate parity violated on n={n}: refusing to record timings"
        )


def run_substrate_benchmarks(scale: str) -> dict:
    """Benchmark both substrates; returns the JSON payload."""
    per_size = []
    for n in _SIZES[scale]:
        instance = union_of_forests(n, n, 3, capacity=2, seed=0)
        t_obj, res_o, cl_o = _direct_once(instance, "object")
        t_col, res_c, cl_c = _direct_once(instance, "columnar")
        _assert_direct_parity(res_o, cl_o, res_c, cl_c, n)
        per_size.append(
            {
                "n_left": n,
                "n_right": n,
                "n_edges": instance.graph.n_edges,
                "n_machines": cl_o.n_machines,
                "mpc_rounds": res_o.mpc_rounds,
                "words_moved": sum(r.total_words_moved for r in cl_o.round_log),
                "object_seconds": round(t_obj, 4),
                "columnar_seconds": round(t_col, 4),
                "speedup": round(t_obj / t_col, 3),
            }
        )

    n = _DRIVER_N[scale]
    inst = union_of_forests(n, n, 2, capacity=2, seed=0)
    kwargs = dict(
        lam=2, mode="faithful", seed=0, sample_budget=6,
        space_slack=_DRIVER_SLACK[scale],
    )
    t0 = time.perf_counter()
    drv_o = solve_allocation_mpc(inst, _EPS, substrate="object", **kwargs)
    t_obj = time.perf_counter() - t0
    t0 = time.perf_counter()
    drv_c = solve_allocation_mpc(inst, _EPS, substrate="columnar", **kwargs)
    t_col = time.perf_counter() - t0
    if not (
        drv_o.ledger.by_category == drv_c.ledger.by_category
        and np.array_equal(drv_o.allocation.x, drv_c.allocation.x)
    ):  # must survive python -O
        raise RuntimeError("faithful-driver substrate parity violated")

    largest = per_size[-1]
    return {
        "benchmark": "MPC substrate: object vs columnar (faithful paths)",
        "scale": scale,
        "direct_simulation": per_size,
        "faithful_driver": {
            "n_left": n,
            "n_right": n,
            "mpc_rounds": drv_o.mpc_rounds,
            "object_seconds": round(t_obj, 4),
            "columnar_seconds": round(t_col, 4),
            "speedup": round(t_obj / t_col, 3),
        },
        "largest_instance_speedup": largest["speedup"],
        "columnar_beats_object": largest["columnar_seconds"]
        < largest["object_seconds"],
        "parity_checked": True,
    }


def main(argv=None) -> None:
    bench_script_main(
        run_substrate_benchmarks, "BENCH_mpc_substrate.json",
        description=__doc__, scales=_SIZES, argv=argv,
    )


if __name__ == "__main__":
    main()
