"""The (1+ε) boosting driver (Theorem 1 / Appendix B).

Input: any constant-approximate integral allocation (in the paper's
pipeline, the rounded output of the MPC algorithm).  Repeat:

1. build a fresh random layered graph (:mod:`repro.boosting.layered`);
2. extract vertex-disjoint layered augmenting paths;
3. apply them all (disjointness ⇒ simultaneous application is valid).

GGM22 show ``exp(O(2^k))·poly(1/ε)`` iterations suffice whp to destroy
every augmenting path of length ≤ 2k−1, at which point the allocation
is a ``(1+1/k)``-approximation.  The driver exposes the iteration
budget and also supports the deterministic eliminator as a reference
mode, which realizes the same guarantee sequentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Literal, Optional

import numpy as np

from repro.boosting.augment import (
    apply_augmenting_path,
    eliminate_short_augmenting_paths,
    find_augmenting_path,
)
from repro.boosting.layered import build_layered_graph, find_layered_augmenting_paths
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_integral_allocation
from repro.graphs.instances import AllocationInstance
from repro.utils.rng import spawn
from repro.utils.validation import check_fraction

__all__ = ["BoostResult", "k_for_epsilon", "boost_allocation"]


@dataclass(frozen=True)
class BoostResult:
    """Outcome of a boosting run."""

    edge_mask: np.ndarray
    initial_size: int
    final_size: int
    iterations_used: int
    augmentations: int
    k: int
    mode: str
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return int(self.final_size)


def k_for_epsilon(epsilon: float) -> int:
    """Path-length parameter: no augmenting path of length ≤ 2k−1 ⇒
    (1+1/k)-approx, so ``k = ⌈1/ε⌉`` hits (1+ε)."""
    epsilon = check_fraction(epsilon, "epsilon")
    return max(1, math.ceil(1.0 / epsilon))


def boost_allocation(
    instance: AllocationInstance,
    edge_mask: np.ndarray,
    epsilon: float,
    *,
    mode: Literal["layered", "deterministic"] = "layered",
    iterations: Optional[int] = None,
    patience: int = 20,
    layer_matcher: Literal["greedy", "proportional"] = "greedy",
    seed=None,
) -> BoostResult:
    """Boost a constant-approximate allocation towards (1+ε).

    ``mode="layered"`` runs the randomized GGM22 iterations (stopping
    after ``iterations`` rounds or ``patience`` consecutive rounds with
    no augmentation); ``mode="deterministic"`` runs the sequential
    eliminator for the same k — the reference realization.
    """
    graph = instance.graph
    caps, mask, _, _ = validate_integral_allocation(graph, instance.capacities, edge_mask)
    mask = mask.copy()
    initial = int(mask.sum())
    k = k_for_epsilon(epsilon)

    if mode == "deterministic":
        mask, n_aug = eliminate_short_augmenting_paths(
            graph, caps, mask, max_length=2 * k - 1
        )
        return BoostResult(
            edge_mask=mask,
            initial_size=initial,
            final_size=int(mask.sum()),
            iterations_used=n_aug,
            augmentations=n_aug,
            k=k,
            mode=mode,
            meta={"max_length": 2 * k - 1},
        )
    if mode != "layered":
        raise ValueError(f"unknown mode {mode!r}")

    if iterations is None:
        # GGM22's bound is exp(O(2^k)); at experiment scale a small
        # multiple of k·log n empirically reaches the plateau, and the
        # deterministic mode certifies the end state in tests.
        iterations = max(8, 4 * k * int(math.log2(max(2, graph.n_vertices))))
    streams = spawn(seed, iterations)
    # Idle patience must cover at least two full sweeps of the length
    # parameter, or a quiet j would end the run prematurely.
    patience = max(patience, 2 * k)
    n_aug = 0
    idle = 0
    used = 0
    for it in range(iterations):
        used = it + 1
        # A layered structure with parameter j catches paths of length
        # exactly 2j+1; cycle j over every target length ≤ 2k−1.
        j = it % k
        layered = build_layered_graph(graph, caps, mask, j, seed=streams[it])
        paths = find_layered_augmenting_paths(
            graph, layered, layer_matcher=layer_matcher, epsilon=min(0.25, epsilon),
            seed=streams[it],
        )
        if not paths:
            idle += 1
            if idle >= patience:
                break
            continue
        idle = 0
        for path in paths:
            mask = apply_augmenting_path(mask, path)
            n_aug += 1
    return BoostResult(
        edge_mask=mask,
        initial_size=initial,
        final_size=int(mask.sum()),
        iterations_used=used,
        augmentations=n_aug,
        k=k,
        mode=mode,
        meta={"layer_matcher": layer_matcher, "iterations_budget": iterations},
    )
