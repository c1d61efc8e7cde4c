"""Experimental proportional dynamics for two-sided b-matching.

**Extension beyond the paper.**  §1.2.1 leaves ``o(log n)``-round
constant-approximate b-matching open.  The natural generalization of
Algorithm 1 gives each left vertex ``b_left[u]`` units to distribute
proportionally (instead of 1) while the right side's threshold update
is unchanged:

    x_{u,v} = b_left[u] · β_v / Σ_{v'∈N_u} β_{v'}
    alloc_v = Σ_u x_{u,v};   β_v steps by (1+ε) on the usual thresholds.

Per-edge caps (``x_e ≤ 1``) are *not* enforced during the dynamics —
the final scaling clips edge values at 1 and rescales right loads,
which preserves both side constraints but can lose mass at vertices
whose optimal solution needs many parallel unit edges.  No guarantee
from the paper applies; the empirical behaviour (tested: feasible
output, competitive ratios on the benchmark families) is the point —
it is the measurable "first step" the paper alludes to, and the E-
suite's infrastructure makes it easy to study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bmatching.problem import BMatchingInstance
from repro.core.proportional import match_weight_from_alloc, threshold_decisions
from repro.kernels import proportional_round, scatter_add, workspace_for
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["BMatchingFractional", "proportional_bmatching"]


@dataclass(frozen=True)
class BMatchingFractional:
    """Fractional b-matching output with its audit numbers."""

    x: np.ndarray
    weight: float
    rounds: int

    def check_feasible(self, instance: BMatchingInstance, tol: float = 1e-6) -> bool:
        g = instance.graph
        if np.any(self.x < -tol) or np.any(self.x > 1 + tol):
            return False
        left = scatter_add(g.edge_u, weights=self.x, minlength=g.n_left)
        right = scatter_add(g.edge_v, weights=self.x, minlength=g.n_right)
        return bool(
            np.all(left <= instance.b_left + tol)
            and np.all(right <= instance.b_right + tol)
        )


def proportional_bmatching(
    instance: BMatchingInstance,
    epsilon: float,
    tau: int,
) -> BMatchingFractional:
    """Run the generalized dynamics for ``tau`` rounds and scale.

    Scaling order: clip per-edge values at 1 (clipping only reduces
    loads), then rescale each right vertex's incoming mass to its
    capacity (left loads only shrink further).
    """
    epsilon = check_fraction(epsilon, "epsilon")
    tau = check_positive_int(tau, "tau")
    g = instance.graph
    ws = workspace_for(g)
    log1p_eps = float(np.log1p(epsilon))
    b_left = instance.b_left.astype(np.float64)
    b_right = instance.b_right.astype(np.float64)

    beta_exp = np.zeros(g.n_right, dtype=np.int64)
    x = np.zeros(g.n_edges, dtype=np.float64)
    alloc = np.zeros(g.n_right, dtype=np.float64)
    for _ in range(tau):
        # The shared round kernel with per-left-vertex unit budgets
        # b_left instead of 1 (DESIGN.md §6).
        x, alloc = proportional_round(ws, beta_exp, log1p_eps, left_units=b_left)
        beta_exp += threshold_decisions(alloc, b_right, epsilon)

    # Feasibility scaling: clip edges at 1, then rescale right loads.
    x = np.minimum(x, 1.0)
    right = scatter_add(g.edge_v, weights=x, minlength=g.n_right)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(right > b_right, b_right / np.where(right > 0, right, 1.0), 1.0)
    x = x * scale[g.edge_v]
    weight = float(x.sum())
    out = BMatchingFractional(x=x, weight=weight, rounds=tau)
    assert out.check_feasible(instance), "scaling must produce a feasible point"
    return out
