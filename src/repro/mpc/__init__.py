"""MPC-model simulator: the accounted cluster, primitives, exponentiation.

:class:`ColumnarCluster` enforces the sublinear-regime constraints
(``S`` words per machine, ``S`` words sent/received per round) over
typed column batches with dtype-based word pricing (DESIGN.md §7), and
keeps the round ledger that E5 compares against :class:`MPCCostModel`'s
closed-form predictions.
"""

from repro.mpc.columns import ColumnBatch, dtype_words, ragged_from_rows
from repro.mpc.columnar import (
    ColumnarCluster,
    RoundLog,
    Shipment,
    SpaceViolation,
    cluster_for,
)
from repro.mpc.primitives import (
    fan_out,
    tree_depth,
    route_by_key,
    tree_broadcast,
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
    "SpaceViolation",
    "RoundLog",
    "cluster_for",
    "ColumnBatch",
    "dtype_words",
    "ragged_from_rows",
    "ColumnarCluster",
    "Shipment",
    "fan_out",
    "tree_depth",
    "route_by_key",
    "tree_broadcast",
    "tree_reduce_vector",
    "sample_sort",
    "collect_balls",
    "expected_doubling_rounds",
    "MPCCostModel",
    "PhaseCost",
    "DirectSimulationResult",
    "simulate_local_rounds_on_cluster",
]
