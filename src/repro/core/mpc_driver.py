"""The full MPC algorithm (Theorem 3).

Pipeline: λ-guessing loop → per guess, phases of B sampled rounds
(Algorithm 2) → per phase, the O(1)-round termination test → scaled
output.  Round bookkeeping follows §5's schedule:

* one phase = graph exponentiation over the phase's sampled graph
  (``2·⌈log₂ B⌉`` exchange rounds), plus constant rounds for level
  grouping, sampling, state write-back, and the termination test;
* the guess schedule ``λ_i = 2^(4^i)`` (``√log λ_i`` doubles per guess)
  keeps the λ-oblivious total within a constant factor of the known-λ
  cost (§3.2.2) — E6 measures that factor.

Two execution modes (DESIGN.md §5):

* ``mode="simulate"`` — Algorithm 2 semantics run directly (the
  vectorized :class:`SampledRun`); MPC rounds are charged from the
  same per-phase schedule the faithful mode actually executes.  This
  is the scale path.
* ``mode="faithful"`` — every communication step additionally runs on
  the accounted :class:`~repro.mpc.ColumnarCluster`: the phase's
  sampled edges are distributed, balls of radius B are collected by
  real graph exponentiation, and the termination test runs as
  route+reduce.
  Space budgets (``S = O(n^α)`` words) are enforced; the numeric
  trajectory is produced by the same keyed sampler, so the two modes
  return bit-identical allocations for one seed.

Warm starts (DESIGN.md §8/§9): the driver accepts an
``initial_exponents`` β vector and starts every guess's dynamics from
it instead of the cold ``b ≡ 0`` — sound because the dynamics converge
from any integer start and the λ-free certificate gates termination
regardless.  The converged vector comes back as
:attr:`MPCResult.final_exponents`, which is the state a resident
:class:`~repro.serve.AllocationSession` retains between solves and the
dynamic layer remaps across instance deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Literal, Optional

import numpy as np

from repro.core import params
from repro.core.fractional import FractionalAllocation
from repro.core.sampled import SampledRun
from repro.core.termination import CertificateStatus, neighbors_of_right_set
from repro.graphs.instances import AllocationInstance
from repro.kernels import RoundWorkspace, workspace_for
from repro.mpc.adaptive import AdaptiveBudgetController
from repro.mpc.columnar import ColumnarCluster, SpaceViolation, cluster_for
from repro.mpc.columns import ColumnBatch
from repro.mpc.exponentiation import ball_record_words, collect_balls
from repro.mpc.primitives import route_by_key, tree_reduce_vector
from repro.utils.validation import check_fraction

__all__ = ["MPCRoundLedger", "MPCResult", "solve_allocation_mpc"]


@dataclass
class MPCRoundLedger:
    """Accumulated MPC round counts, by category."""

    by_category: dict[str, int] = field(default_factory=dict)
    phases: int = 0
    guesses: list[int] = field(default_factory=list)
    peak_machine_words: int = 0
    peak_global_words: int = 0
    peak_routed_records: int = 0      # worst per-machine routing fan-in
    violations: list[str] = field(default_factory=list)
    # One row per executed faithful phase (and per discarded adaptive
    # attempt): budget decision, predicted vs observed peak words, and
    # the phase's distributional load metrics (DESIGN.md §13).
    trajectory: list[dict] = field(default_factory=list)

    def record_routing(self, histogram) -> None:
        """Track the routing-skew peak from a route_by_key histogram."""
        if histogram is not None and histogram.size:
            self.peak_routed_records = max(
                self.peak_routed_records, int(histogram.max())
            )

    def charge(self, category: str, rounds: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + int(rounds)

    @property
    def total_rounds(self) -> int:
        return sum(self.by_category.values())


@dataclass(frozen=True)
class MPCResult:
    """Outcome of the MPC driver.

    Beyond the fractional allocation and its certificate, the result
    carries the two quantities the serving layers consume:
    ``meta["warm_start"]`` records whether the solve started from a
    retained β vector, and ``final_exponents`` is the converged vector
    itself — the warm base for the *next* solve (bit-equal to the
    run's ``beta_exp`` at termination; ``local_rounds`` counts only
    this run's rounds, so a warm re-solve reports the small
    incremental count, not the history behind its starting vector).
    """

    allocation: FractionalAllocation
    match_weight: float
    local_rounds: int                     # LOCAL rounds simulated (last guess)
    mpc_rounds: int                       # total accounted MPC rounds
    ledger: MPCRoundLedger
    certificate: Optional[CertificateStatus]
    guarantee: Optional[float]
    epsilon: float
    meta: dict[str, Any] = field(default_factory=dict)
    # Converged β exponent vector — the warm-start state a resident
    # AllocationSession retains between solves (DESIGN.md §8).
    final_exponents: Optional[np.ndarray] = None


def _phase_round_schedule(block: int) -> dict[str, int]:
    """Per-phase round charges.

    Exponentiation reaches radius 2B (the bipartite dependency radius
    of B dynamics rounds — see :mod:`repro.core.ball_replay`): one
    doubling join = 2 exchanges, ⌈log₂(2B)⌉ joins.
    """
    exp_rounds = 2 * max(1, math.ceil(math.log2(2 * block)))
    return {
        "exponentiation": exp_rounds,
        "grouping": 1,
        "sampling": 1,
        "writeback": 1,
        "termination_test": 2,
    }


def _evaluate_certificate_from_run(run: SampledRun, epsilon: float) -> CertificateStatus:
    """Certificate conditions on a sampled run's current state."""
    graph = run.graph
    top = run.top_level_mask()
    bottom = run.bottom_level_mask()
    n_prime = int(neighbors_of_right_set(graph, top).sum())
    l0_size = int(bottom.sum())
    upper_mass = float(run.alloc[~bottom].sum())
    return CertificateStatus(
        rounds=run.rounds_completed,
        n_prime=n_prime,
        l0_size=l0_size,
        top_size=int(top.sum()),
        upper_mass=upper_mass,
        small_frontier=n_prime <= l0_size,
        mass_condition=upper_mass >= (1.0 - epsilon / 2.0) * n_prime,
        epsilon=epsilon,
    )


def _certificates_agree(a: CertificateStatus, b: CertificateStatus) -> bool:
    """Exact agreement of the two certificate evaluations, modulo
    float summation order.

    Every counting field and both stopping conditions must match
    bit-for-bit; ``upper_mass`` is a float fold whose distributed
    (tree-reduce) and host (``np.sum`` pairwise) summation orders may
    differ by ulps, so it is compared to relative 1e-9."""
    return (
        a.rounds == b.rounds
        and a.n_prime == b.n_prime
        and a.l0_size == b.l0_size
        and a.top_size == b.top_size
        and a.small_frontier == b.small_frontier
        and a.mass_condition == b.mass_condition
        and a.epsilon == b.epsilon
        and abs(a.upper_mass - b.upper_mass)
        <= 1e-9 * max(1.0, abs(a.upper_mass), abs(b.upper_mass))
    )


def _phase_sampled_edges(run: SampledRun, rounds_in_phase: int) -> np.ndarray:
    """Pre-draw the phase's samples and return the union sampled graph.

    Samples come from the keyed sampler (pure functions of the seed,
    so the subsequent ``run_phase`` redraws the identical sets, or, in
    the exact regime, draws none and sums the same whole groups
    exactly).  The union is returned as a ``(k, 2)`` array of merged vertex ids in
    lexicographic order — the same sequence as ``sorted(edge_set)``
    over per-record tuples, computed vectorized.
    """
    g = run.graph
    left_groups, right_groups = run.build_phase_groups()
    pair_codes: list[np.ndarray] = []
    n_merged = np.int64(g.n_left) + np.int64(g.n_right)
    for r in range(rounds_in_phase):
        round_index = run.rounds_completed + r
        pos_l = run.sampler.sample_positions(left_groups, 0, round_index, run.sample_budget)
        pos_r = run.sampler.sample_positions(right_groups, 1, round_index, run.sample_budget)
        slots_l = left_groups.slot_order[pos_l]
        slots_r = right_groups.slot_order[pos_r]
        u_l = np.searchsorted(g.left_indptr, slots_l, side="right") - 1
        b_l = g.left_adj[slots_l].astype(np.int64) + g.n_left
        v_r = np.searchsorted(g.right_indptr, slots_r, side="right") - 1
        b_r = np.asarray(v_r, dtype=np.int64) + g.n_left
        u_r = g.right_adj[slots_r].astype(np.int64)
        pair_codes.append(u_l.astype(np.int64) * n_merged + b_l)
        pair_codes.append(u_r * n_merged + b_r)
    codes = np.unique(np.concatenate(pair_codes)) if pair_codes else np.empty(0, np.int64)
    return np.stack([codes // n_merged, codes % n_merged], axis=1)


def _category_words_moved(cluster, log_start: int) -> dict[str, int]:
    """Words moved per round category since ``log_start``, from the
    cluster's round log (labels like ``exponentiation/request`` fold
    into their category prefix)."""
    moved: dict[str, int] = {}
    for entry in cluster.round_log[log_start:]:
        category = entry.label.split("/", 1)[0]
        if category in ("certificate",):
            category = "termination_test"
        moved[category] = moved.get(category, 0) + int(entry.total_words_moved)
    return moved


def _faithful_phase(
    run: SampledRun,
    cluster: ColumnarCluster,
    rounds_in_phase: int,
    ledger: MPCRoundLedger,
) -> dict[str, Any]:
    """Execute one phase's *communication* on the cluster.

    Builds the union sampled graph (:func:`_phase_sampled_edges`) and
    collects radius-``2B`` balls by graph exponentiation with full
    space accounting.

    Returns the phase's distributional load metrics — ball payload
    percentiles, per-category words moved, and routing skew — which the
    driver records as a round-ledger trajectory row (DESIGN.md §13).
    """
    g = run.graph
    pairs = _phase_sampled_edges(run, rounds_in_phase)
    log_start = len(cluster.round_log)
    skews: list[float] = []

    def note_skew(histogram) -> None:
        if histogram is not None and histogram.size and histogram.sum() > 0:
            skews.append(
                float(histogram.max()) * histogram.size / float(histogram.sum())
            )

    # Level grouping round: co-locate each vertex's incident sampled
    # edges (the grouping information) by vertex id.
    cluster.load_batches(
        [ColumnBatch("sedge", {"a": pairs[:, 0], "b": pairs[:, 1]}, key="a")]
    )
    hist = route_by_key(cluster, label="grouping", return_histogram=True)
    ledger.record_routing(hist)
    note_skew(hist)
    ledger.charge("grouping", 1)
    ledger.charge("sampling", 1)  # the sample-announcement round

    # Graph exponentiation on the sampled graph.  One dynamics round is
    # a radius-2 dependency in the bipartite graph (alloc needs x from
    # N(v), which needs β̂ from N(N(v))), so B rounds need radius-2B
    # balls — verified executable in repro.core.ball_replay.  The +1
    # inside ⌈log₂(2B)⌉ is absorbed by the theorem's constants.
    ball_words = np.zeros(0, dtype=np.int64)
    if rounds_in_phase >= 1:
        balls, exp_rounds = collect_balls(
            cluster,
            g.n_vertices,
            [tuple(p) for p in pairs.tolist()],
            radius=2 * rounds_in_phase,
        )
        ledger.charge("exponentiation", exp_rounds)
        if balls:
            ball_words = np.sort(
                np.asarray(
                    [ball_record_words(edges) for edges in balls.values()],
                    dtype=np.int64,
                )
            )
    # Write-back of updated β values: one routing round.
    cluster.load_batches(
        [
            ColumnBatch(
                "beta",
                {
                    "v": np.arange(g.n_right, dtype=np.int64),
                    "b": run.beta_exp.astype(np.int64),
                },
                key="v",
            )
        ]
    )
    hist = route_by_key(cluster, label="writeback", return_histogram=True)
    ledger.record_routing(hist)
    note_skew(hist)
    ledger.charge("writeback", 1)

    ledger.peak_machine_words = max(
        ledger.peak_machine_words, cluster.peak_machine_words()
    )
    ledger.peak_global_words = max(ledger.peak_global_words, cluster.peak_global_words())
    ledger.violations.extend(cluster.violations)

    def pct(q: float) -> float:
        return float(np.percentile(ball_words, q)) if ball_words.size else 0.0

    return {
        "ball_count": int(ball_words.size),
        "payload_words_p50": pct(50.0),
        "payload_words_p95": pct(95.0),
        "payload_words_p99": pct(99.0),
        "payload_words_max": int(ball_words[-1]) if ball_words.size else 0,
        "words_moved": _category_words_moved(cluster, log_start),
        "routing_skew": max(skews) if skews else 1.0,
    }


def _faithful_certificate_test(
    run: SampledRun, cluster: ColumnarCluster, ledger: MPCRoundLedger
) -> CertificateStatus:
    """The O(1)-round termination test, executed with primitives.

    Round 1 routes (edge, is-top-endpoint) records by left vertex so
    each machine can mark its covered left vertices; a tree reduce then
    folds (|N'|, |L₀|, Σ_{j≥1} alloc) to machine 0.  The per-machine
    partials are computed vectorized (unique counts and arrival-order
    ``bincount`` sums) and folded with :func:`tree_reduce_vector`.
    """
    g = run.graph
    top = run.top_level_mask()
    bottom = run.bottom_level_mask()
    M = cluster.n_machines
    cedge = ColumnBatch(
        "cedge",
        {
            "u": g.edge_u.astype(np.int64),
            "istop": top[g.edge_v].astype(bool),
        },
        key="u",
    )
    cvert = ColumnBatch(
        "cvert",
        {
            "v": np.arange(g.n_right, dtype=np.int64),
            "isbot": bottom.astype(bool),
            "alloc": run.alloc.astype(np.float64),
        },
        key="v",
    )
    cluster.load_batches([cedge, cvert])  # round-robin over the concatenation
    ledger.record_routing(
        route_by_key(cluster, label="certificate/route", return_histogram=True)
    )
    ledger.charge("termination_test", 1)

    # Local dedup: covered left vertices per machine, via unique
    # (machine, u) pairs — the vectorized form of the per-machine set.
    cedge, cedge_home = cluster.rows("cedge")
    is_top = cedge.cols["istop"]
    n_verts = max(1, g.n_vertices)
    codes = cedge_home[is_top] * np.int64(n_verts) + cedge.cols["u"][is_top]
    covered = np.bincount(
        (np.unique(codes) // n_verts).astype(np.int64), minlength=M
    ).astype(np.int64)
    cluster.append_rows(
        ColumnBatch("__covered__", {"count": covered}),
        np.arange(M, dtype=np.int64),
    )

    # Per-machine partials (|N'|, |L₀|, Σ alloc above L₀).  The mass
    # bincount accumulates in row order, a machine's storage scan
    # order.
    cvert, cvert_home = cluster.rows("cvert")
    isbot = cvert.cols["isbot"]
    partials = np.zeros((M, 3), dtype=np.float64)
    partials[:, 0] = covered
    partials[:, 1] = np.bincount(cvert_home[isbot], minlength=M)
    partials[:, 2] = np.bincount(
        cvert_home[~isbot], weights=cvert.cols["alloc"][~isbot], minlength=M
    )
    (n_prime, l0_size, upper_mass), reduce_rounds = tree_reduce_vector(
        cluster, partials, label="certificate/reduce"
    )
    ledger.charge("termination_test", reduce_rounds)
    n_prime = int(n_prime)
    l0_size = int(l0_size)
    upper_mass = float(upper_mass)
    return CertificateStatus(
        rounds=run.rounds_completed,
        n_prime=n_prime,
        l0_size=l0_size,
        top_size=int(top.sum()),
        upper_mass=upper_mass,
        small_frontier=n_prime <= l0_size,
        mass_condition=upper_mass >= (1.0 - run.epsilon / 2.0) * n_prime,
        epsilon=run.epsilon,
    )


def solve_allocation_mpc(
    instance: AllocationInstance,
    epsilon: float,
    *,
    alpha: float = 0.5,
    lam: Optional[int] = None,
    sample_budget: Optional[int] = None,
    mode: Literal["simulate", "faithful"] = "simulate",
    budget_policy: Literal["fixed", "adaptive"] = "fixed",
    safety_fraction: float = 0.8,
    estimator: Literal["stratified", "pooled"] = "stratified",
    sampler: Optional[Literal["keyed", "fast"]] = None,
    seed=None,
    max_guesses: int = 8,
    space_slack: float = 64.0,
    block_override: Optional[int] = None,
    certificate_cadence: Literal["per_phase", "per_guess"] = "per_phase",
    workspace: Optional[RoundWorkspace] = None,
    initial_exponents: Optional[np.ndarray] = None,
) -> MPCResult:
    """Theorem 3: (2+O(ε))-approximate fractional allocation in MPC.

    ``lam=None`` activates the λ-guessing loop; a known bound skips it.
    The returned guarantee is Theorem 17's ``2+16ε`` (the sampled
    algorithm's factor, ε ≤ 1/4) once a certificate is obtained.
    Boosting to (1+ε) is :mod:`repro.boosting`'s job downstream.

    ``sampler`` defaults to ``"keyed"`` in faithful mode (required —
    samples must be re-drawable inside a collected ball) and ``"fast"``
    in simulate mode; pass ``"keyed"`` explicitly to make the two modes
    bit-identical for one seed (the cross-mode equivalence test).

    ``block_override`` forces the phase length B instead of eq. (4)'s
    value — eq. (4) only exceeds 1 at asymptotic scales, so E5's
    compression-economics sweep forces B to expose the ``τ/B·log B``
    trade-off at laptop scale.  ``certificate_cadence`` selects between
    testing the stopping conditions after every phase (strictly better,
    the default) and only at the end of each guess's full budget (the
    literal §3.2.2 schedule, which E6 uses to measure the guessing
    overhead the paper's analysis bounds).

    ``initial_exponents`` warm-starts the dynamics from a retained β
    exponent vector instead of the cold ``b ≡ 0`` (DESIGN.md §8): the
    dynamics converge from any start and the λ-free certificate is
    sound at any round, so every guess runs from the given vector and
    the usual certificate gates termination.  The converged vector is
    returned as ``final_exponents`` for the next warm solve.

    ``budget_policy="adaptive"`` (faithful mode only, DESIGN.md §13)
    replaces the fixed per-round sample budget with an
    :class:`~repro.mpc.adaptive.AdaptiveBudgetController`: each phase
    runs at a budget chosen so the predicted peak machine words stay
    under ``safety_fraction·S``, ramping when headroom exists and
    throttling — or discarding the attempt and retrying halved, via
    the fresh-cluster-per-phase protocol — before a
    :class:`~repro.mpc.SpaceViolation` kills the run.  The
    allocation is still produced by the same keyed sampler and checked
    by the same faithful certificate; only the per-phase budgets
    differ from a fixed run.  Every decision lands in
    ``ledger.trajectory``.
    """
    epsilon = check_fraction(epsilon, "epsilon", inclusive_high=0.25)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if budget_policy not in ("fixed", "adaptive"):
        raise ValueError(
            f"budget_policy must be 'fixed' or 'adaptive', got {budget_policy!r}"
        )
    safety_fraction = check_fraction(
        safety_fraction, "safety_fraction", inclusive_high=1.0
    )
    adaptive = budget_policy == "adaptive"
    if adaptive and mode != "faithful":
        raise ValueError("budget_policy='adaptive' requires mode='faithful'")
    graph = instance.graph
    if workspace is None:
        workspace = workspace_for(graph)
    n = max(2, graph.n_vertices)
    ledger = MPCRoundLedger()

    guesses = [lam] if lam is not None else [params.lambda_guess(i) for i in range(max_guesses)]
    run: Optional[SampledRun] = None
    certificate: Optional[CertificateStatus] = None
    used_guess: Optional[int] = None

    for guess in guesses:
        block = block_override or params.block_length(n, guess, epsilon, alpha)
        tau = params.tau_two_approx(guess, epsilon)
        if mode == "faithful" and sampler == "fast":
            raise ValueError("faithful mode requires the keyed sampler")
        effective_sampler = sampler or ("keyed" if mode == "faithful" else "fast")
        run = SampledRun(
            graph,
            instance.capacities,
            epsilon,
            block=block,
            sample_budget=sample_budget,
            estimator=estimator,
            sampler=effective_sampler,
            seed=seed,
            record_estimates=False,
            workspace=workspace,
            initial_exponents=initial_exponents,
        )
        cluster: Optional[ColumnarCluster] = None
        controller: Optional[AdaptiveBudgetController] = None
        s_words: Optional[int] = None
        total_words = 3 * (graph.n_edges + graph.n_vertices) + 16
        if mode == "faithful":
            # The per-machine budget cluster_for will enforce (words =
            # max(16, ⌊slack·n^α⌋)) — the adaptive controller's S.
            s_words = max(16, int(space_slack * n ** alpha))
            if adaptive:
                # Fresh controller per guess: budget trajectories are
                # per-(λ, schedule), not shared across guesses.
                controller = AdaptiveBudgetController(
                    budget_words=s_words,
                    max_budget=run.sample_budget,
                    safety_fraction=safety_fraction,
                )
            else:
                cluster = cluster_for(
                    total_words, n_for_alpha=n, alpha=alpha, slack=space_slack,
                    strict=True,
                )
        ledger.guesses.append(guess)
        schedule = _phase_round_schedule(block)

        while run.rounds_completed < tau:
            rounds_this_phase = min(block, tau - run.rounds_completed)
            if mode == "faithful" and adaptive:
                assert controller is not None and s_words is not None
                budget, decision = controller.propose()
                attempts = 0
                while True:
                    # Attempt the phase's communication at the proposed
                    # budget on a fresh cluster with a scratch ledger —
                    # _faithful_phase does not mutate the run, so a
                    # violating attempt can be discarded and retried
                    # lower before run_phase commits anything.
                    attempts += 1
                    run.sample_budget = budget
                    cluster = cluster_for(
                        total_words, n_for_alpha=n, alpha=alpha,
                        slack=space_slack, strict=True,
                    )
                    scratch = MPCRoundLedger()
                    try:
                        metrics = _faithful_phase(
                            run, cluster, rounds_this_phase, scratch
                        )
                    except SpaceViolation:
                        observed = max(cluster.peak_machine_words(), s_words + 1)
                        ledger.trajectory.append({
                            "phase": ledger.phases,
                            "guess": guess,
                            "round_start": run.rounds_completed,
                            "rounds": rounds_this_phase,
                            "sample_budget": budget,
                            "decision": "backoff",
                            "attempts": attempts,
                            "accepted": False,
                            "predicted_peak_words": controller.predicted_peak(budget),
                            "observed_peak_words": observed,
                            "budget_words": s_words,
                            "safety_fraction": safety_fraction,
                        })
                        retry = controller.backoff(budget, observed)
                        if retry is None:
                            raise
                        budget, decision = retry, "backoff"
                        continue
                    break
                predicted = controller.predicted_peak(budget)
                observed = cluster.peak_machine_words()
                controller.observe(budget, observed)
                for category, rounds_used in scratch.by_category.items():
                    ledger.charge(category, rounds_used)
                ledger.peak_machine_words = max(
                    ledger.peak_machine_words, scratch.peak_machine_words
                )
                ledger.peak_global_words = max(
                    ledger.peak_global_words, scratch.peak_global_words
                )
                ledger.peak_routed_records = max(
                    ledger.peak_routed_records, scratch.peak_routed_records
                )
                ledger.violations.extend(scratch.violations)
                ledger.trajectory.append({
                    "phase": ledger.phases,
                    "guess": guess,
                    "round_start": run.rounds_completed,
                    "rounds": rounds_this_phase,
                    "sample_budget": budget,
                    "decision": decision,
                    "attempts": attempts,
                    "accepted": True,
                    "predicted_peak_words": predicted,
                    "observed_peak_words": observed,
                    "budget_words": s_words,
                    "safety_fraction": safety_fraction,
                    **metrics,
                })
            elif mode == "faithful":
                assert cluster is not None
                metrics = _faithful_phase(run, cluster, rounds_this_phase, ledger)
                ledger.trajectory.append({
                    "phase": ledger.phases,
                    "guess": guess,
                    "round_start": run.rounds_completed,
                    "rounds": rounds_this_phase,
                    "sample_budget": run.sample_budget,
                    "decision": "fixed",
                    "attempts": 1,
                    "accepted": True,
                    "predicted_peak_words": None,
                    "observed_peak_words": cluster.peak_machine_words(),
                    "budget_words": s_words,
                    "safety_fraction": None,
                    **metrics,
                })
            else:
                for category, cost in schedule.items():
                    if category != "termination_test":
                        ledger.charge(category, cost)
            run.run_phase(rounds_this_phase)
            ledger.phases += 1
            # Termination test: per phase (sound at any round) or only
            # at the end of the guess's budget (§3.2.2's schedule).
            at_budget_end = run.rounds_completed >= tau
            if certificate_cadence == "per_guess" and not at_budget_end:
                continue
            if mode == "faithful":
                assert cluster is not None
                cert_log_start = len(cluster.round_log)
                certificate = _faithful_certificate_test(run, cluster, ledger)
                if ledger.trajectory:
                    # Certificate traffic belongs to the phase that
                    # triggered the test — fold it into that row's
                    # per-category words-moved column.
                    row = ledger.trajectory[-1]
                    moved = dict(row.get("words_moved", {}))
                    for category, words in _category_words_moved(
                        cluster, cert_log_start
                    ).items():
                        moved[category] = moved.get(category, 0) + words
                    row["words_moved"] = moved
                if adaptive:
                    # The accepted cluster is discarded after this
                    # phase, so certificate-time peaks must be folded
                    # into the ledger here (the fixed path carries them
                    # into the next phase's cumulative peaks instead).
                    ledger.peak_machine_words = max(
                        ledger.peak_machine_words, cluster.peak_machine_words()
                    )
                    ledger.peak_global_words = max(
                        ledger.peak_global_words, cluster.peak_global_words()
                    )
            else:
                ledger.charge("termination_test", schedule["termination_test"])
                certificate = _evaluate_certificate_from_run(run, epsilon)
            if certificate.satisfied:
                break
        if certificate is not None and certificate.satisfied:
            used_guess = guess
            break

    if run is None or certificate is None or not certificate.satisfied:
        raise RuntimeError(
            f"certificate did not fire within {max_guesses} λ guesses — "
            "the guess cap is below the instance's arboricity"
        )

    allocation = run.fractional_allocation().require_feasible(
        graph, instance.capacities, tol=1e-6
    )
    # Theorem 17 factor for the sampled algorithm (k = 4 thresholds).
    guarantee = params.approx_factor_adaptive(epsilon, 4.0)
    meta = {
        "mode": mode,
        "alpha": alpha,
        "used_guess": used_guess,
        "lambda_known": lam is not None,
        "sample_budget": run.sample_budget,
        "max_degree": graph.max_degree,
        # Every round of the returned run decided on exact sums
        # (Algorithm 1's decisions, DESIGN.md §2.3); False where some
        # phase's budget fell below the max degree and it sampled.
        "exact_regime": run.exact_rounds == run.rounds_completed,
        "block": run.block,
        "warm_start": initial_exponents is not None,
        "budget_policy": budget_policy,
    }
    if adaptive:
        meta["safety_fraction"] = safety_fraction
        # Bit-check: the throttled run's faithful certificate must
        # agree with the host-side evaluation of the same run state.
        meta["certificate_crosscheck"] = _certificates_agree(
            certificate, _evaluate_certificate_from_run(run, epsilon)
        )
    return MPCResult(
        allocation=allocation,
        match_weight=run.match_weight(),
        local_rounds=run.rounds_completed,
        mpc_rounds=ledger.total_rounds,
        ledger=ledger,
        certificate=certificate,
        guarantee=guarantee,
        epsilon=epsilon,
        meta=meta,
        final_exponents=run.beta_exp.copy(),
    )
