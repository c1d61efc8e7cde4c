"""Allocation problem instances: a graph, capacities, and provenance.

An :class:`AllocationInstance` bundles everything an allocation solver
needs, plus the arboricity upper bound the generator can certify *by
construction* — the quantity the paper's round bounds are parameterized
by.  Exact arboricity of generated instances is computed on demand by
:mod:`repro.graphs.arboricity` and may be smaller than the certified
bound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities

__all__ = ["AllocationInstance", "instance_hash"]


@dataclass(frozen=True)
class AllocationInstance:
    """A named allocation problem instance.

    Attributes
    ----------
    graph:
        The bipartite graph ``G = (L ∪ R, E)``.
    capacities:
        Integer capacities ``C_v ≥ 1`` per right vertex.
    arboricity_upper_bound:
        A bound ``λ(G) ≤ this`` certified by the generator's
        construction (e.g. a union of k forests certifies k).  ``None``
        when the generator cannot certify one.
    name:
        Human-readable family name for experiment tables.
    metadata:
        Generator parameters (for provenance in result dumps).
    """

    graph: BipartiteGraph
    capacities: np.ndarray
    arboricity_upper_bound: int | None = None
    name: str = "instance"
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        caps = validate_capacities(self.graph, self.capacities)
        object.__setattr__(self, "capacities", caps)
        caps.setflags(write=False)
        if self.arboricity_upper_bound is not None and self.arboricity_upper_bound < 1:
            if self.graph.n_edges > 0:
                raise ValueError("arboricity bound must be >= 1 for a non-empty graph")

    @property
    def n_left(self) -> int:
        return self.graph.n_left

    @property
    def n_right(self) -> int:
        return self.graph.n_right

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def with_capacities(self, capacities: np.ndarray, suffix: str = "recap") -> "AllocationInstance":
        """Same graph, different capacity profile."""
        return AllocationInstance(
            graph=self.graph,
            capacities=capacities,
            arboricity_upper_bound=self.arboricity_upper_bound,
            name=f"{self.name}+{suffix}",
            metadata=dict(self.metadata),
        )

    def describe(self) -> dict[str, Any]:
        """Summary row for experiment tables."""
        return {
            "name": self.name,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "m": self.n_edges,
            "lambda_bound": self.arboricity_upper_bound,
            "total_capacity": int(self.capacities.sum()) if self.n_right else 0,
        }


def instance_hash(instance: AllocationInstance) -> str:
    """Stable content hash of an instance (hex sha256).

    Covers everything that changes what a solve computes: the vertex
    counts, the canonical edge arrays, and the capacity vector.  The
    display ``name`` and free-form ``metadata`` are deliberately
    excluded — two instances with identical structure and capacities
    are the *same* serving target and must route to the same shard.
    """
    g = instance.graph
    h = hashlib.sha256()
    h.update(f"repro-instance-v1:{g.n_left}:{g.n_right}:{g.n_edges}".encode())
    for arr in (g.edge_u, g.edge_v, instance.capacities):
        a = np.ascontiguousarray(arr)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()
