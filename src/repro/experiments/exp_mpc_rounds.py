"""E5 — MPC round complexity and space (Theorem 3/10).

Three comparisons per arboricity point:

1. **measured** MPC rounds of the full driver (simulate mode, known λ),
2. the **cost model**'s closed-form prediction for the same
   configuration, and
3. the **AZM18 baseline** bill ``O(log n/ε²)``.

Final faithful-mode rows at small scale execute every communication
step on the accounted cluster and report peak per-machine words
against the ``S = O(n^α)`` budget (zero violations required) — once
under the fixed sample budget and once under the adaptive budget
policy (DESIGN.md §13), whose per-phase budget trajectory and
decisions become table columns.  The shape note fits measured rounds
against ``√log λ·log log λ``.
"""

from __future__ import annotations

from repro.analysis.theory import shape_verdict
from repro.core import params
from repro.core.mpc_driver import solve_allocation_mpc
from repro.experiments.harness import Scale, register
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.mpc.costmodel import MPCCostModel
from repro.utils.tables import Table

_SIZES: dict[str, tuple[int, list[int]]] = {
    # (width of the stress family, core sweep = lambda targets)
    "smoke": (3, [2, 4]),
    "normal": (4, [2, 4, 8, 16, 32]),
    "full": (4, [2, 4, 8, 16, 32, 64, 128]),
}

# Faithful rows: (n, space_slack) per scale.  The columnar cluster
# (DESIGN.md §7) makes cluster-accounted runs cheap enough to grow the
# faithful instance with the scale; slack grows with ball volume so the
# S-budget stays feasible.
_FAITHFUL_SIZES: dict[str, list[tuple[int, float]]] = {
    "smoke": [(16, 512.0)],
    "normal": [(16, 512.0), (48, 1024.0)],
    "full": [(16, 512.0), (48, 1024.0), (96, 2048.0)],
}

EPSILON = 0.2
ALPHA = 0.5


@register(
    "e5",
    "MPC rounds and space vs arboricity",
    "T3/T10: O(sqrt(log lambda) loglog lambda) MPC rounds, n^alpha local memory, "
    "O~(lambda n) total memory",
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    width, ks = _SIZES[scale]
    table = Table(title="E5: MPC rounds (simulate) + space (faithful)")
    measured: list[float] = []
    for k in ks:
        inst = slow_spread_instance(k, width=width)
        lam = k + 1
        res = solve_allocation_mpc(inst, EPSILON, alpha=ALPHA, lam=lam, seed=seed)
        model = MPCCostModel(n=inst.graph.n_vertices, lam=lam, epsilon=EPSILON, alpha=ALPHA)
        measured.append(res.mpc_rounds)
        table.add_row(
            mode="simulate",
            lambda_bound=lam,
            n=inst.graph.n_vertices,
            m=inst.graph.n_edges,
            mpc_rounds=res.mpc_rounds,
            local_rounds=res.local_rounds,
            model_predicted=model.rounds_known_lambda(),
            azm18_rounds=model.baseline_rounds_azm18(),
            block=res.meta["block"],
            phases=res.ledger.phases,
        )

    # Phase-compression economics: eq. (4)'s B exceeds 1 only at
    # asymptotic n, so force B at a fixed λ to expose the τ/B·log B
    # trade-off the paper's compression buys (§3.2.1).
    k_fixed = ks[-1]
    inst = slow_spread_instance(k_fixed, width=width)
    for forced_b in (1, 2, 4, 8):
        res = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=k_fixed + 1, seed=seed,
            block_override=forced_b,
        )
        table.add_row(
            mode=f"simulate(B={forced_b})",
            lambda_bound=k_fixed + 1,
            n=inst.graph.n_vertices,
            mpc_rounds=res.mpc_rounds,
            local_rounds=res.local_rounds,
            block=forced_b,
            phases=res.ledger.phases,
        )

    # Faithful rows: full cluster accounting, growing with the scale.
    for small_n, slack in _FAITHFUL_SIZES[scale]:
        inst = union_of_forests(small_n, small_n, 2, capacity=2, seed=seed)
        res = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=2, mode="faithful", seed=seed,
            sample_budget=6, space_slack=slack,
        )
        s_words = int(slack * inst.graph.n_vertices**ALPHA)
        table.add_row(
            mode="faithful",
            lambda_bound=2,
            n=inst.graph.n_vertices,
            m=inst.graph.n_edges,
            mpc_rounds=res.mpc_rounds,
            local_rounds=res.local_rounds,
            peak_machine_words=res.ledger.peak_machine_words,
            machine_budget_words=s_words,
            space_violations=len(res.ledger.violations),
        )

        # Same instance under the adaptive budget policy (DESIGN.md
        # §13): the per-phase budget trajectory becomes a column so the
        # throttle's decisions are auditable next to the fixed row.
        adaptive = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, lam=2, mode="faithful", seed=seed,
            sample_budget=6, space_slack=slack, budget_policy="adaptive",
        )
        accepted = [r for r in adaptive.ledger.trajectory if r["accepted"]]
        table.add_row(
            mode="faithful(adaptive)",
            lambda_bound=2,
            n=inst.graph.n_vertices,
            m=inst.graph.n_edges,
            mpc_rounds=adaptive.mpc_rounds,
            local_rounds=adaptive.local_rounds,
            peak_machine_words=adaptive.ledger.peak_machine_words,
            machine_budget_words=s_words,
            space_violations=len(adaptive.ledger.violations),
            budget_trajectory="->".join(str(r["sample_budget"]) for r in accepted),
            budget_decisions=",".join(
                r["decision"] for r in adaptive.ledger.trajectory
            ),
            certificate_crosscheck=bool(adaptive.meta["certificate_crosscheck"]),
        )

    if len(ks) >= 2:
        verdict = shape_verdict(ks, measured)
        best = max(verdict, key=verdict.get)
        table.add_note(
            "MPC-round shape fit R² vs λ: "
            + ", ".join(f"{k2}={v:.3f}" for k2, v in sorted(verdict.items()))
            + f" → best: {best}"
        )
    table.add_note(
        "faithful mode executes every exchange on the accounted cluster; "
        "violations must be 0"
    )
    return table
