"""repro — reproduction of "Faster MPC Algorithms for Approximate
Allocation in Uniformly Sparse Graphs" (SPAA 2025, arXiv:2506.04524).

The supported entry point is the :mod:`repro.api` Engine façade —
:class:`Engine` bound to a :class:`SolverConfig`, returning
:class:`AllocationReport` results — re-exported here.  The config is
the only selector of the kernel backend and the pipeline knobs; new
backends register with :func:`repro.kernels.register_backend`.

Subpackages
-----------
``repro.api``
    The unified Engine façade: one typed :class:`SolverConfig`, one
    :class:`AllocationReport` result schema, one lifecycle over the
    cold, warm, MPC and dynamic paths (DESIGN.md §10).
``repro.graphs``
    Bipartite graph substrate, workload generators, arboricity tools.
``repro.mpc``
    MPC model simulator: the word-accounted columnar cluster
    (DESIGN.md §7), primitives, graph exponentiation, round cost
    model.
``repro.kernels``
    The unified kernel layer: segment primitives behind pluggable
    backends (reference / optimized / native, plus the size-dispatching
    auto) and cached per-graph
    :class:`~repro.kernels.RoundWorkspace` state (DESIGN.md §6).
``repro.core``
    The paper's algorithms: proportional allocation (Algorithm 1),
    adaptive thresholds (Algorithm 3), sampled phases (Algorithm 2),
    LOCAL and MPC drivers, termination certificates, and the
    composable stage pipeline.
``repro.rounding``
    §6 randomized rounding from fractional to integral allocations.
``repro.boosting``
    Appendix B: (1+ε) boosting via the GGM22 layered-graph framework.
``repro.baselines``
    Exact OPT (Dinic max-flow), greedy, auction, AZM18-in-MPC.
``repro.analysis``
    Metrics, theoretical predictions, concentration diagnostics.
``repro.experiments``
    The theorem-driven experiment suite (E0–E12) and its harness.
``repro.serve``
    The serving layer: resident sessions with warm-started solves and
    the thread-parallel batch executor (DESIGN.md §8).
``repro.dynamic``
    Delta-driven dynamic instances: the typed delta algebra, the
    :class:`~repro.dynamic.DynamicSession` carrying warm state across
    deltas, and reproducible churn scenarios (DESIGN.md §9).
"""

__version__ = "4.0.0"

from repro.graphs import AllocationInstance, BipartiteGraph, build_graph

__all__ = [
    "AllocationInstance",
    "BipartiteGraph",
    "build_graph",
    "Engine",
    "SolverConfig",
    "AllocationReport",
    "__version__",
]

# The façade exports resolve lazily (PEP 562): `from repro import
# Engine` works, but `import repro` alone — and the config-free CLI
# paths (info/generate) — do not pay for loading the whole solver
# stack behind repro.api.
_API_EXPORTS = ("Engine", "SolverConfig", "AllocationReport")


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_API_EXPORTS))
