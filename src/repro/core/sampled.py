"""Algorithm 2 — sampled, phase-compressed proportional allocation.

The MPC obstacle (§3.2.1): simulating B LOCAL rounds by shipping whole
B-hop neighbourhoods can exceed machine memory because degrees are
unbounded.  Algorithm 2 removes the obstacle by *estimating* the two
aggregates each round needs —

* ``β_u = Σ_{v∈N_u} β_v``    for every left vertex, and
* ``alloc_v = β_v · Σ_{u∈N_v} 1/β_u``  for every right vertex —

from per-level-group samples drawn at the start of each phase of B
rounds.  Because a β value moves by at most (1+ε) per round, values
inside one phase-start group stay within a ``(1+ε)^B`` spread, which is
exactly the regime Lemma 11's stratified concentration bound covers
with ``t = (1+ε)^{2B}·ε⁻⁵·log n`` samples per (vertex, group, round).

Implementation notes
--------------------
* Two estimators (DESIGN.md §2.4): ``"stratified"`` scales each group's
  sample sum by ``|group|/|sample|`` (the Horvitz–Thompson form Lemma
  11 analyses); ``"pooled"`` is the paper's literal line-5 rescale
  ``|N_w|/|N_{r,w}|`` over the pooled sample.  E10 ablates them.
* Two samplers: ``KeyedSampler`` derives an independent stream per
  (round, side, vertex, group) — reproducible per vertex, which is
  what lets the faithful MPC mode re-draw identical samples inside a
  collected ball; ``FastSampler`` uses one stream and a rank trick, for
  large simulate-mode sweeps.  Identical distributions.
* The exact regime: a budget of at least the graph's max degree
  covers every group, so each sample is a whole group, each estimate
  an exact sum, and Algorithm 2 is Algorithm 1.  A phase that starts
  in this regime without recording estimates skips grouping and
  sampling: each round decides from the true allocs the round kernel
  computes anyway, with the same thresholds, so its β trajectory is
  Algorithm 1's bit for bit (``exact_rounds`` counts these rounds).
  The theoretical ``t`` lands here at laptop scale.  Runs that record
  estimates (E4, E10, ``ball_replay``) and budgets below the max
  degree keep sampling (DESIGN.md §2.3).
* True x/alloc are recomputed each round alongside the estimates
  (instrumentation for Lemma 12/13 checks and the final output, which
  lines 5–6 of Algorithm 1 define in terms of true allocs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.core import params
from repro.core.fractional import FractionalAllocation
from repro.core.proportional import (
    bottom_level_mask_from,
    compute_x_alloc,
    init_exponent_state,
    level_indices_from,
    match_weight_from_alloc,
    threshold_decisions,
    top_level_mask_from,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.kernels import RoundWorkspace, get_backend, resolve_workspace
from repro.utils.rng import RngFactory, as_generator, choice_without_replacement
from repro.utils.validation import check_fraction, check_positive_int

__all__ = [
    "SideGroups",
    "build_side_groups",
    "KeyedSampler",
    "FastSampler",
    "RoundEstimates",
    "PhaseReport",
    "SampledRun",
]

# Offset applied to (possibly negative) group keys when deriving RNG
# stream keys; exponents never approach this magnitude.
_KEY_OFFSET = 1 << 20

LEFT_SIDE = 0
RIGHT_SIDE = 1


@dataclass(frozen=True)
class SideGroups:
    """Phase-start partition of one side's neighbourhoods by level key.

    ``slot_order`` lists CSR slot ids so that each (row, key) group is
    contiguous; group ``g`` occupies ``slot_order[group_start[g] :
    group_start[g+1]]``, belongs to row ``group_row[g]`` and has level
    key ``group_key[g]``.
    """

    n_rows: int
    n_slots: int
    slot_order: np.ndarray
    group_start: np.ndarray
    group_row: np.ndarray
    group_key: np.ndarray

    @property
    def n_groups(self) -> int:
        return int(self.group_row.shape[0])

    @property
    def group_sizes(self) -> np.ndarray:
        return np.diff(self.group_start)

    def position_group_ids(self) -> np.ndarray:
        """Group id of every position in ``slot_order``."""
        return np.repeat(
            np.arange(self.n_groups, dtype=np.int64), self.group_sizes
        )


def build_side_groups(
    indptr: np.ndarray,
    slot_keys: np.ndarray,
    *,
    slot_owner: Optional[np.ndarray] = None,
) -> SideGroups:
    """Group each CSR row's slots by ``slot_keys`` (vectorized).

    ``slot_owner`` optionally supplies the cached slot→row index (a
    per-graph invariant, see :mod:`repro.kernels`) so phase boundaries
    skip the ``np.repeat`` re-expansion.
    """
    n_rows = indptr.shape[0] - 1
    m = slot_keys.shape[0]
    if slot_owner is not None:
        row_of_slot = slot_owner
    else:
        row_of_slot = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    # Deterministic order: by row, then key, then slot id.
    order = np.lexsort((np.arange(m), slot_keys, row_of_slot))
    sorted_rows = row_of_slot[order]
    sorted_keys = slot_keys[order]
    if m == 0:
        return SideGroups(
            n_rows=n_rows,
            n_slots=0,
            slot_order=order,
            group_start=np.zeros(1, dtype=np.int64),
            group_row=np.empty(0, dtype=np.int64),
            group_key=np.empty(0, dtype=np.int64),
        )
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    boundary[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
        sorted_keys[1:] != sorted_keys[:-1]
    )
    starts = np.nonzero(boundary)[0]
    group_start = np.concatenate([starts, [m]]).astype(np.int64)
    return SideGroups(
        n_rows=n_rows,
        n_slots=m,
        slot_order=order.astype(np.int64),
        group_start=group_start,
        group_row=sorted_rows[starts],
        group_key=sorted_keys[starts],
    )


class KeyedSampler:
    """Per-(round, side, vertex, group) independent streams.

    A vertex's sample set is a pure function of (root seed, round,
    side, vertex, group key) — re-drawable anywhere, including inside a
    faithful-mode machine that only holds the vertex's ball.
    """

    def __init__(self, seed=None):
        self.factory = RngFactory(seed)

    def sample_positions(
        self, groups: SideGroups, side: int, round_index: int, budget: int
    ) -> np.ndarray:
        chosen: list[np.ndarray] = []
        sizes = groups.group_sizes
        for g in range(groups.n_groups):
            size = int(sizes[g])
            rng = self.factory.get(
                round_index,
                side,
                int(groups.group_row[g]),
                int(groups.group_key[g]) + _KEY_OFFSET,
            )
            local = choice_without_replacement(rng, size, budget)
            chosen.append(local + groups.group_start[g])
        if not chosen:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chosen)


class FastSampler:
    """Single-stream sampler using a rank trick: draw one uniform per
    slot and keep the ``budget`` smallest in every group.  Uniform
    without replacement per group, one vectorized pass per round."""

    def __init__(self, seed=None):
        self.rng = as_generator(seed)

    def sample_positions(
        self, groups: SideGroups, side: int, round_index: int, budget: int
    ) -> np.ndarray:
        m = groups.n_slots
        if m == 0:
            return np.empty(0, dtype=np.int64)
        gid = groups.position_group_ids()
        rand = self.rng.random(m)
        order = np.lexsort((rand, gid))
        ranks = np.arange(m, dtype=np.int64) - groups.group_start[gid[order]]
        return order[ranks < budget]


@dataclass(frozen=True)
class RoundEstimates:
    """Instrumentation for one simulated round."""

    round_index: int
    beta_hat: np.ndarray          # estimated β_u per left vertex
    beta_true: np.ndarray         # exact Σ β_v per left vertex
    alloc_hat: np.ndarray         # estimated alloc per right vertex
    alloc_true: np.ndarray        # exact alloc per right vertex
    decisions: np.ndarray

    def beta_relative_errors(self) -> np.ndarray:
        mask = self.beta_true > 0
        out = np.zeros_like(self.beta_true)
        out[mask] = np.abs(self.beta_hat[mask] - self.beta_true[mask]) / self.beta_true[mask]
        return out

    def alloc_relative_errors(self) -> np.ndarray:
        mask = self.alloc_true > 0
        out = np.zeros_like(self.alloc_true)
        out[mask] = np.abs(self.alloc_hat[mask] - self.alloc_true[mask]) / self.alloc_true[mask]
        return out


@dataclass
class PhaseReport:
    """Summary of one executed phase."""

    phase_index: int
    rounds: list[RoundEstimates] = field(default_factory=list)

    def max_beta_error(self) -> float:
        return max((float(r.beta_relative_errors().max(initial=0.0)) for r in self.rounds), default=0.0)

    def max_alloc_error(self) -> float:
        return max((float(r.alloc_relative_errors().max(initial=0.0)) for r in self.rounds), default=0.0)


class SampledRun:
    """Executable Algorithm 2 on one instance.

    Mirrors :class:`ProportionalRun`'s surface (β exponents, level
    masks, match weight, scaled output) but drives decisions from the
    sampled estimates.  ``sample_budget=None`` uses the theoretical
    ``t`` from the paper's parameter line (which in practice covers
    whole groups — the exact regime).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        capacities: np.ndarray,
        epsilon: float,
        *,
        block: int,
        sample_budget: Optional[int] = None,
        estimator: Literal["stratified", "pooled"] = "stratified",
        sampler: Literal["keyed", "fast"] = "keyed",
        seed=None,
        record_estimates: bool = True,
        workspace: Optional[RoundWorkspace] = None,
        initial_exponents: Optional[np.ndarray] = None,
    ):
        self.graph = graph
        self.workspace = resolve_workspace(graph, workspace)
        self.capacities = validate_capacities(graph, capacities).astype(np.float64)
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.block = check_positive_int(block, "block")
        n = graph.n_vertices
        if sample_budget is None:
            sample_budget = params.sample_size(self.block, self.epsilon, max(2, n))
        self.sample_budget = check_positive_int(sample_budget, "sample_budget")
        if estimator not in ("stratified", "pooled"):
            raise ValueError(f"unknown estimator {estimator!r}")
        self.estimator = estimator
        if sampler == "keyed":
            self.sampler = KeyedSampler(seed)
        elif sampler == "fast":
            self.sampler = FastSampler(seed)
        else:
            raise ValueError(f"unknown sampler {sampler!r}")
        self.record_estimates = record_estimates

        self.log1p_eps = float(np.log1p(self.epsilon))
        self.base_exponents, self.beta_exp = init_exponent_state(
            graph, initial_exponents
        )
        self.rounds_completed = 0
        self.exact_rounds = 0
        self.phases_completed = 0
        self.x_slots: Optional[np.ndarray] = None
        self.alloc: Optional[np.ndarray] = None
        self.phase_reports: list[PhaseReport] = []

    # ------------------------------------------------------------------
    # Phase machinery
    # ------------------------------------------------------------------
    def _beta_values_shifted(self) -> tuple[np.ndarray, float]:
        """β_v = (1+ε)^{b_v − max b} — globally scale-shifted values.

        The dynamics are invariant under a global β scaling (x and
        alloc are ratios), so shifting by the max exponent keeps every
        magnitude in (0, 1] without changing any decision.
        """
        shift = int(self.beta_exp.max(initial=0))
        vals = np.exp((self.beta_exp - shift) * self.log1p_eps)
        return vals, float(shift)

    def _exact_beta_u(self, beta_vals: np.ndarray) -> np.ndarray:
        """Exact β_u = Σ_{v∈N_u} β_v (phase boundaries only)."""
        return self.graph.left_segment_sum(beta_vals[self.graph.left_adj])

    def build_phase_groups(self) -> tuple[SideGroups, SideGroups]:
        """Line 2 of Algorithm 2: partition every neighbourhood by the
        counterpart's current level."""
        g = self.graph
        # L side groups N_u by the (integer, exact) β_v exponent.
        left_groups = build_side_groups(
            g.left_indptr, self.beta_exp[g.left_adj], slot_owner=g.left_slot_owner
        )
        # R side groups N_v by the (1+ε)-bucket of the exact β_u.
        beta_vals, _ = self._beta_values_shifted()
        beta_u = self._exact_beta_u(beta_vals)
        with np.errstate(divide="ignore"):
            log_bu = np.where(beta_u > 0, np.log(np.where(beta_u > 0, beta_u, 1.0)), 0.0)
        bucket_u = np.floor(log_bu / self.log1p_eps).astype(np.int64)
        right_groups = build_side_groups(
            g.right_indptr, bucket_u[g.right_adj], slot_owner=g.right_slot_owner
        )
        return left_groups, right_groups

    def _estimate_row_sums(
        self,
        groups: SideGroups,
        positions: np.ndarray,
        slot_values: np.ndarray,
    ) -> np.ndarray:
        """Estimated per-row sums from sampled positions.

        ``stratified``: Σ over groups of |group|/|sample| · sample sum.
        ``pooled``: per row, |N_w|/|pooled sample| · pooled sample sum
        (the paper's literal line-5/6 rescale).
        """
        backend = get_backend()
        n_groups = groups.n_groups
        gid = groups.position_group_ids()
        chosen_gid = gid[positions]
        chosen_values = slot_values[groups.slot_order[positions]]
        row_sums = np.zeros(groups.n_rows, dtype=np.float64)
        if positions.size == 0:
            return row_sums
        if self.estimator == "stratified":
            sums = backend.scatter_add(
                chosen_gid, weights=chosen_values, minlength=n_groups
            )
            counts = backend.scatter_add(chosen_gid, minlength=n_groups).astype(
                np.float64
            )
            sizes = groups.group_sizes.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                est = np.where(counts > 0, sizes / np.where(counts > 0, counts, 1.0) * sums, 0.0)
            return backend.scatter_add(
                groups.group_row, weights=est, minlength=groups.n_rows
            )
        # pooled
        chosen_rows = groups.group_row[chosen_gid]
        sums = backend.scatter_add(
            chosen_rows, weights=chosen_values, minlength=groups.n_rows
        )
        counts = backend.scatter_add(chosen_rows, minlength=groups.n_rows).astype(
            np.float64
        )
        degrees = backend.scatter_add(
            groups.group_row,
            weights=groups.group_sizes.astype(np.float64),
            minlength=groups.n_rows,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            row_sums = np.where(counts > 0, degrees / np.where(counts > 0, counts, 1.0) * sums, 0.0)
        return row_sums

    def run_phase(self, rounds: Optional[int] = None) -> PhaseReport:
        """Execute one phase of ``rounds`` (default B) simulated rounds.

        The exact-regime test (module docstring) runs at every phase
        start, not once per run: the adaptive faithful policy rewrites
        ``sample_budget`` between phases, and a throttled phase below
        the max degree must sample.
        """
        rounds = self.block if rounds is None else check_positive_int(rounds, "rounds")
        g = self.graph
        exact = not self.record_estimates and self.sample_budget >= g.max_degree
        if not exact:
            left_groups, right_groups = self.build_phase_groups()
        report = PhaseReport(phase_index=self.phases_completed)

        for _ in range(rounds):
            # The true x/alloc: the lines-5/6 output of Algorithm 1, the
            # Lemma 12/13 instrumentation, and in the exact regime the
            # decisions themselves.
            x_true, alloc_true = compute_x_alloc(
                g, self.beta_exp, self.log1p_eps, workspace=self.workspace
            )
            if exact:
                decisions = threshold_decisions(
                    alloc_true, self.capacities, self.epsilon
                )
                self.exact_rounds += 1
            else:
                beta_vals, _ = self._beta_values_shifted()
                # Line 5: estimate β_u from fresh per-group samples of N_u.
                pos_l = self.sampler.sample_positions(
                    left_groups, LEFT_SIDE, self.rounds_completed, self.sample_budget
                )
                beta_hat = self._estimate_row_sums(
                    left_groups, pos_l, beta_vals[g.left_adj]
                )
                # Line 6: estimate alloc_v = β_v · Σ 1/β_u over fresh samples.
                pos_r = self.sampler.sample_positions(
                    right_groups, RIGHT_SIDE, self.rounds_completed, self.sample_budget
                )
                with np.errstate(divide="ignore"):
                    inv_beta_hat = np.where(beta_hat > 0, 1.0 / np.where(beta_hat > 0, beta_hat, 1.0), 0.0)
                inv_sum_hat = self._estimate_row_sums(
                    right_groups, pos_r, inv_beta_hat[g.right_adj]
                )
                alloc_hat = beta_vals * inv_sum_hat
                # Line 7: the plain (1+ε) thresholds on the *estimates*.
                decisions = threshold_decisions(
                    alloc_hat, self.capacities, self.epsilon
                )
                if self.record_estimates:
                    report.rounds.append(
                        RoundEstimates(
                            round_index=self.rounds_completed,
                            beta_hat=beta_hat,
                            beta_true=self._exact_beta_u(beta_vals),
                            alloc_hat=alloc_hat,
                            alloc_true=alloc_true,
                            decisions=decisions,
                        )
                    )
            self.beta_exp += decisions
            self.rounds_completed += 1
            self.x_slots, self.alloc = x_true, alloc_true

        self.phases_completed += 1
        self.phase_reports.append(report)
        return report

    def run_rounds(self, total_rounds: int) -> "SampledRun":
        """Execute phases until ``total_rounds`` rounds are done (the
        final phase may be shorter)."""
        if total_rounds < self.rounds_completed:
            raise ValueError("total_rounds already exceeded")
        while self.rounds_completed < total_rounds:
            remaining = total_rounds - self.rounds_completed
            self.run_phase(min(self.block, remaining))
        return self

    # ------------------------------------------------------------------
    # Outputs (mirror ProportionalRun)
    # ------------------------------------------------------------------
    def _require_started(self) -> None:
        if self.rounds_completed == 0 or self.alloc is None:
            raise RuntimeError("no rounds executed yet")

    def match_weight(self) -> float:
        self._require_started()
        return match_weight_from_alloc(self.capacities, self.alloc)

    def fractional_allocation(self) -> FractionalAllocation:
        self._require_started()
        raw = FractionalAllocation(x=self.x_slots)
        return raw.scaled_into_feasibility(self.graph, self.capacities)

    def level_indices(self) -> np.ndarray:
        return level_indices_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )

    def top_level_mask(self) -> np.ndarray:
        return top_level_mask_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )

    def bottom_level_mask(self) -> np.ndarray:
        return bottom_level_mask_from(
            self.beta_exp, self.base_exponents, self.rounds_completed
        )
