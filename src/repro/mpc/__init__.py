"""MPC-model substrate: accounted machines, primitives, exponentiation.

:class:`MPCCluster` enforces the sublinear-regime constraints (``S``
words per machine, ``S`` words sent/received per round) and keeps the
round ledger that E5 compares against :class:`MPCCostModel`'s
closed-form predictions.

Two substrates implement the accounting (DESIGN.md §7): the object
reference (:class:`MPCCluster`, Python tuples) and the vectorized
columnar cluster (:class:`ColumnarCluster`, typed column batches with
dtype-based word pricing).  Selection mirrors the kernel backends:
``repro.api.SolverConfig(substrate=...)`` or :func:`use_substrate`;
both produce bit-identical ledgers and trajectories.
"""

from repro.mpc.machine import Machine, SpaceViolation, sizeof_words
from repro.mpc.cluster import MPCCluster, RoundLog, cluster_for
from repro.mpc.columns import ColumnBatch, dtype_words, ragged_from_rows
from repro.mpc.columnar import ColumnarCluster, Shipment
from repro.mpc.substrate import (
    available_substrates,
    get_substrate,
    make_cluster,
    register_substrate,
    use_substrate,
)
from repro.mpc.primitives import (
    fan_out,
    tree_depth,
    route_by_key,
    tree_broadcast,
    tree_reduce,
    tree_reduce_vector,
    sample_sort,
)
from repro.mpc.exponentiation import collect_balls, expected_doubling_rounds
from repro.mpc.costmodel import MPCCostModel, PhaseCost
from repro.mpc.simulation import (
    DirectSimulationResult,
    simulate_local_rounds_on_cluster,
)

__all__ = [
    "Machine",
    "SpaceViolation",
    "sizeof_words",
    "MPCCluster",
    "RoundLog",
    "cluster_for",
    "ColumnBatch",
    "dtype_words",
    "ragged_from_rows",
    "ColumnarCluster",
    "Shipment",
    "available_substrates",
    "get_substrate",
    "make_cluster",
    "register_substrate",
    "use_substrate",
    "fan_out",
    "tree_depth",
    "route_by_key",
    "tree_broadcast",
    "tree_reduce",
    "tree_reduce_vector",
    "sample_sort",
    "collect_balls",
    "expected_doubling_rounds",
    "MPCCostModel",
    "PhaseCost",
    "DirectSimulationResult",
    "simulate_local_rounds_on_cluster",
]
