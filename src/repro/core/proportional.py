"""Algorithm 1 — the proportional allocation dynamics of [AZM18].

State: one priority exponent per right vertex, ``β_v = (1+ε)^{b_v}``,
``b_v`` starting at 0.  Each round:

1. every left vertex splits its unit mass proportionally to its
   neighbours' priorities, ``x_{u,v} = β_v / Σ_{v'∈N_u} β_{v'}``;
2. every right vertex measures ``alloc_v = Σ_{u∈N_v} x_{u,v}``;
3. priorities move one ε-step: up if under-allocated by the threshold
   factor, down if over-allocated, else unchanged.

The integer-exponent representation makes level sets (§4) *exact* —
``L_j = {v : b_v = j − τ}`` is an integer comparison — and the x
computation shifts exponents by the per-neighbourhood maximum before
exponentiating, so the ``τ = Θ(log n/ε²)`` regime of Theorem 20 cannot
overflow (DESIGN.md §5).

Algorithm 3 (Appendix A) differs only in its per-(vertex, round)
decision thresholds ``k_{v,r}``; it is obtained by passing a
:class:`ThresholdSchedule`.  Algorithm 1 is the constant-1 schedule.

Everything is vectorized over CSR segments per the domain guides; one
round costs O(m) numpy work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Union

import numpy as np

from repro.core.fractional import FractionalAllocation
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.kernels import RoundWorkspace, proportional_round, resolve_workspace
from repro.utils.validation import check_fraction

__all__ = [
    "ThresholdSchedule",
    "ConstantThresholds",
    "ReplayThresholds",
    "ProportionalRun",
    "compute_x_alloc",
    "threshold_decisions",
    "match_weight_from_alloc",
    "validate_initial_exponents",
    "init_exponent_state",
    "level_indices_from",
    "top_level_mask_from",
    "bottom_level_mask_from",
]

ThresholdValue = Union[float, np.ndarray]


class ThresholdSchedule(Protocol):
    """Per-round decision thresholds ``k_{v,r}`` (Algorithm 3).

    ``thresholds(round_index, n_right)`` returns a scalar or an
    ``(n_right,)`` array of ``k`` values for the given 0-based round.
    Algorithm 1 is the constant schedule ``k ≡ 1``.
    """

    def thresholds(self, round_index: int, n_right: int) -> ThresholdValue: ...


@dataclass(frozen=True)
class ConstantThresholds:
    """``k_{v,r} ≡ k`` — Algorithm 1 when ``k = 1``."""

    k: float = 1.0

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"threshold k must be positive, got {self.k}")

    def thresholds(self, round_index: int, n_right: int) -> float:
        return self.k


@dataclass
class ReplayThresholds:
    """Explicit per-round threshold arrays (Lemma 13 reconstructions)."""

    table: list[np.ndarray] = field(default_factory=list)

    def thresholds(self, round_index: int, n_right: int) -> np.ndarray:
        if round_index >= len(self.table):
            raise IndexError(
                f"no thresholds recorded for round {round_index} "
                f"(have {len(self.table)})"
            )
        arr = self.table[round_index]
        if arr.shape != (n_right,):
            raise ValueError(f"threshold array has shape {arr.shape}")
        return arr


def compute_x_alloc(
    graph: BipartiteGraph,
    beta_exp: np.ndarray,
    log1p_eps: float,
    *,
    workspace: Optional[RoundWorkspace] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One evaluation of lines 2–3 of Algorithm 1.

    Returns ``(x, alloc)`` where ``x`` is per-edge in canonical order
    (identical to L-CSR slot order by construction) and ``alloc`` is
    per right vertex.  Numerically: within each left neighbourhood the
    exponents are shifted by their maximum, so every weight lies in
    ``(0, 1]`` and the denominator in ``[1, deg]`` — no overflow at any
    exponent magnitude (DESIGN.md §5).  The heavy lifting is the shared
    round kernel in :mod:`repro.kernels` (DESIGN.md §6).
    """
    return proportional_round(
        resolve_workspace(graph, workspace), beta_exp, log1p_eps
    )


def threshold_decisions(
    alloc: np.ndarray, capacities: np.ndarray, k_eps: ThresholdValue
) -> np.ndarray:
    """The line-4 test of Algorithm 1 (line 7 of Algorithm 2): +1
    raises β where ``alloc ≤ C/(1+kε)``, −1 lowers it where
    ``alloc ≥ C·(1+kε)``, 0 keeps it.  ``k_eps`` is ``k·ε``, a scalar
    or one value per right vertex (Algorithm 3's schedules)."""
    increase = alloc <= capacities / (1.0 + k_eps)
    decrease = alloc >= capacities * (1.0 + k_eps)
    return increase.astype(np.int64) - decrease.astype(np.int64)


def match_weight_from_alloc(capacities: np.ndarray, alloc: np.ndarray) -> float:
    """``MatchWeight = Σ_v min(C_v, alloc_v)`` — the weight of the
    scaled output allocation (§4)."""
    return float(np.minimum(capacities, alloc).sum())


def validate_initial_exponents(
    graph: BipartiteGraph, initial_exponents: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Normalize a warm-start exponent vector (DESIGN.md §8).

    ``None`` means the paper's cold start (``b ≡ 0``).  Otherwise the
    vector must hold one integer exponent per right vertex; a frozen
    int64 copy is returned so runs can keep it as their level-set base
    without aliasing caller state.
    """
    if initial_exponents is None:
        return None
    base = np.asarray(initial_exponents)
    if base.shape != (graph.n_right,):
        raise ValueError(
            f"initial_exponents must have shape ({graph.n_right},), "
            f"got {base.shape}"
        )
    if not np.issubdtype(base.dtype, np.integer):
        raise TypeError(
            "initial_exponents must be integer β exponents, got dtype "
            f"{base.dtype}"
        )
    base = base.astype(np.int64, copy=True)
    base.setflags(write=False)
    return base


def init_exponent_state(
    graph: BipartiteGraph, initial_exponents: Optional[np.ndarray]
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """``(base, beta_exp)`` starting state shared by the run classes:
    cold start gives ``(None, zeros)``, a warm start gives the frozen
    base plus a mutable working copy."""
    base = validate_initial_exponents(graph, initial_exponents)
    if base is None:
        return None, np.zeros(graph.n_right, dtype=np.int64)
    return base, base.copy()


def level_indices_from(
    beta_exp: np.ndarray, base: Optional[np.ndarray], rounds: int
) -> np.ndarray:
    """Level index ``j ∈ [0, 2r]`` per right vertex, measured relative
    to the run's base vector (§4; DESIGN.md §8 for warm starts)."""
    if base is None:
        return beta_exp + rounds
    return beta_exp - base + rounds


def top_level_mask_from(
    beta_exp: np.ndarray, base: Optional[np.ndarray], rounds: int
) -> np.ndarray:
    """``L_{2r}`` membership: β rose every round of this run."""
    if base is None:
        return beta_exp == rounds
    return beta_exp == base + rounds


def bottom_level_mask_from(
    beta_exp: np.ndarray, base: Optional[np.ndarray], rounds: int
) -> np.ndarray:
    """``L_0`` membership: β fell every round of this run."""
    if base is None:
        return beta_exp == -rounds
    return beta_exp == base - rounds


class ProportionalRun:
    """A mutable execution of Algorithm 1/3 on one instance.

    Typical use::

        run = ProportionalRun(graph, caps, epsilon=0.1)
        run.run(tau)
        out = run.fractional_allocation()   # lines 5-6 scaling
        w = run.match_weight()

    After ``r`` completed rounds, ``x_slots``/``alloc`` hold the values
    computed *during* round ``r`` (i.e. from the β at the start of that
    round), while ``beta_exp`` holds the post-update priorities — the
    exact state the §4 analysis inspects.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        capacities: np.ndarray,
        epsilon: float,
        *,
        thresholds: Optional[ThresholdSchedule] = None,
        workspace: Optional[RoundWorkspace] = None,
        initial_exponents: Optional[np.ndarray] = None,
    ):
        self.graph = graph
        self.capacities = validate_capacities(graph, capacities).astype(np.float64)
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.log1p_eps = float(np.log1p(self.epsilon))
        self.schedule: ThresholdSchedule = thresholds or ConstantThresholds(1.0)
        self.workspace = resolve_workspace(graph, workspace)
        self.base_exponents, self.beta_exp = init_exponent_state(
            graph, initial_exponents
        )
        self.rounds_completed = 0
        self.x_slots: Optional[np.ndarray] = None
        self.alloc: Optional[np.ndarray] = None
        self.last_decisions: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def compute_x_alloc(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate x/alloc for the *current* priorities (pure)."""
        return compute_x_alloc(
            self.graph, self.beta_exp, self.log1p_eps, workspace=self.workspace
        )

    def decide(self, alloc: np.ndarray, k: ThresholdValue) -> np.ndarray:
        """Line-4 decisions from true allocs: +1 (raise β), −1, or 0."""
        k_eps = np.asarray(k, dtype=np.float64) * self.epsilon
        return threshold_decisions(alloc, self.capacities, k_eps)

    def step(self) -> np.ndarray:
        """Execute one full round; returns the ±1/0 decision vector."""
        x, alloc = self.compute_x_alloc()
        k = self.schedule.thresholds(self.rounds_completed, self.graph.n_right)
        decisions = self.decide(alloc, k)
        self.beta_exp += decisions
        self.rounds_completed += 1
        self.x_slots, self.alloc = x, alloc
        self.last_decisions = decisions
        return decisions

    def step_with_decisions(self, decisions: np.ndarray) -> None:
        """Apply externally chosen decisions (the sampled Algorithm 2
        path: decisions come from *estimated* allocs, but the recorded
        x/alloc are the true ones, which Lemma 13's reconstruction and
        the §4 analysis consume)."""
        decisions = np.asarray(decisions, dtype=np.int64)
        if decisions.shape != (self.graph.n_right,):
            raise ValueError(f"decisions must have shape ({self.graph.n_right},)")
        if decisions.size and (decisions.min() < -1 or decisions.max() > 1):
            raise ValueError("decisions must be in {-1, 0, +1}")
        x, alloc = self.compute_x_alloc()
        self.beta_exp += decisions
        self.rounds_completed += 1
        self.x_slots, self.alloc = x, alloc
        self.last_decisions = decisions

    def run(self, rounds: int) -> "ProportionalRun":
        """Execute ``rounds`` further rounds; returns self."""
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        for _ in range(rounds):
            self.step()
        return self

    # ------------------------------------------------------------------
    # Outputs & analysis views
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if self.rounds_completed == 0 or self.alloc is None:
            raise RuntimeError("no rounds executed yet; call step()/run() first")

    def match_weight(self) -> float:
        """``Σ_v min(C_v, alloc_v)`` for the last computed allocs."""
        self._require_started()
        return match_weight_from_alloc(self.capacities, self.alloc)

    def fractional_allocation(self) -> FractionalAllocation:
        """Lines 5–6: scale the last x down to feasibility."""
        self._require_started()
        raw = FractionalAllocation(x=self.x_slots)
        return raw.scaled_into_feasibility(self.graph, self.capacities)

    def level_indices(self) -> np.ndarray:
        """Level index ``j ∈ [0, 2r]`` of every right vertex, where
        ``L_j = {v : β_v = (1+ε)^{j−r}}`` (§4).

        Warm-started runs (``initial_exponents``) measure levels
        relative to their starting vector: the §4 level sets track how
        a priority moved over *this* run's rounds, so the base shifts
        out (DESIGN.md §8).
        """
        return level_indices_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )

    def level_histogram(self) -> np.ndarray:
        """``|L_j|`` for ``j = 0..2r``."""
        return np.bincount(self.level_indices(), minlength=2 * self.rounds_completed + 1)

    def top_level_mask(self) -> np.ndarray:
        """Membership mask of ``L_{2r}`` (β increased every round)."""
        return top_level_mask_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )

    def bottom_level_mask(self) -> np.ndarray:
        """Membership mask of ``L_0`` (β decreased every round)."""
        return bottom_level_mask_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )

    def snapshot(self) -> dict:
        """Cheap state dump for traces and cross-implementation tests."""
        return {
            "round": self.rounds_completed,
            "beta_exp": self.beta_exp.copy(),
            "alloc": None if self.alloc is None else self.alloc.copy(),
            "x": None if self.x_slots is None else self.x_slots.copy(),
        }
