"""§6 — randomized rounding from fractional to integral allocations.

The paper's procedure: sample each edge independently with probability
``x_e / 6``; call a vertex *heavy* if its sampled degree exceeds its
capacity (1 for left vertices, ``C_v`` for right) and drop **all**
sampled edges at heavy vertices.  §6 proves ``E[|M|] ≥ wt(M_f)/9``:
each sampled edge survives unless an endpoint is heavy, and Markov
(capacity > 1) / union (capacity = 1) bounds make each endpoint heavy
with probability ≤ 1/3.

For a whp guarantee the MPC algorithm runs ``O(log n)`` independent
copies in parallel and keeps the best — :func:`round_best_of`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.kernels import scatter_add
from repro.utils.rng import as_generator, spawn
from repro.utils.validation import check_fraction, check_positive_int

if TYPE_CHECKING:
    # Annotation only: a runtime import would load repro.core, whose
    # pipeline imports this module back (a circular ImportError when
    # repro.rounding is the first package imported).
    from repro.core.fractional import FractionalAllocation

__all__ = [
    "RoundingOutcome",
    "round_once",
    "round_best_of",
    "default_copies",
    "expected_size_lower_bound",
]

# The paper's sampling damping: edge e is taken w.p. x_e / SAMPLING_DIVISOR.
SAMPLING_DIVISOR = 6.0
# E[|M|] ≥ wt(M_f) / EXPECTATION_FACTOR (§6's computation).
EXPECTATION_FACTOR = 9.0


@dataclass(frozen=True)
class RoundingOutcome:
    """One rounded allocation with its audit trail."""

    edge_mask: np.ndarray        # surviving edges (the allocation M)
    sampled_mask: np.ndarray     # the pre-drop sample
    heavy_left: np.ndarray       # left vertices that were heavy
    heavy_right: np.ndarray      # right vertices that were heavy

    @property
    def size(self) -> int:
        return int(self.edge_mask.sum())


def expected_size_lower_bound(fractional_weight: float) -> float:
    """§6: ``E[|M|] ≥ wt(M_f)/9``."""
    return fractional_weight / EXPECTATION_FACTOR


def default_copies(n: int, constant: float = 4.0) -> int:
    """``O(log n)`` parallel copies for the whp best-of selection."""
    n = check_positive_int(n, "n")
    return max(1, int(math.ceil(constant * math.log(max(2, n)))))


def round_once(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    allocation: FractionalAllocation,
    *,
    seed=None,
) -> RoundingOutcome:
    """One run of the §6 procedure.

    The output is always a feasible allocation: after dropping edges at
    heavy vertices, every remaining vertex has sampled degree within
    its capacity by definition of heavy.
    """
    caps = validate_capacities(graph, capacities)
    x = allocation.x
    if x.shape != (graph.n_edges,):
        raise ValueError("allocation does not match the graph")
    rng = as_generator(seed)
    sampled = rng.random(graph.n_edges) < (x / SAMPLING_DIVISOR)

    left_deg = scatter_add(graph.edge_u[sampled], minlength=graph.n_left)
    right_deg = scatter_add(graph.edge_v[sampled], minlength=graph.n_right)
    heavy_left = left_deg > 1
    heavy_right = right_deg > caps

    keep = sampled & ~heavy_left[graph.edge_u] & ~heavy_right[graph.edge_v]
    return RoundingOutcome(
        edge_mask=keep,
        sampled_mask=sampled,
        heavy_left=heavy_left,
        heavy_right=heavy_right,
    )


def round_best_of(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    allocation: FractionalAllocation,
    *,
    copies: int | None = None,
    seed=None,
) -> RoundingOutcome:
    """Best of ``copies`` independent roundings (the whp version).

    In MPC the copies run in parallel and selecting the maximum costs
    O(1) rounds; here they run sequentially over spawned streams.
    """
    if copies is None:
        copies = default_copies(graph.n_vertices)
    copies = check_positive_int(copies, "copies")
    best: RoundingOutcome | None = None
    for stream in spawn(seed, copies):
        outcome = round_once(graph, capacities, allocation, seed=stream)
        if best is None or outcome.size > best.size:
            best = outcome
    assert best is not None
    return best
