"""Inside the MPC simulation: machines, rounds, and the space ledger.

Runs the full Theorem-3 algorithm in *faithful* mode on a small
instance: every communication step — level grouping, sampling
announcement, graph exponentiation over the sampled graph, state
write-back, and the O(1)-round termination test — executes on an
accounted cluster whose machines hold S = O(n^α) words.  The printed
ledger is the raw material of experiment E5.

Also demonstrates that simulate mode reproduces the faithful run
bit-for-bit when both use the keyed sampler with one seed.

Run:  python examples/mpc_cluster_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import union_of_forests


def main() -> None:
    instance = union_of_forests(n_left=24, n_right=20, k=2, capacity=2, seed=5)
    g = instance.graph
    print(f"instance: {instance.name}  (n={g.n_vertices}, m={g.n_edges})")

    eps = 0.2
    faithful = solve_allocation_mpc(
        instance, eps, lam=2, mode="faithful", seed=99,
        sample_budget=6, space_slack=512.0,
    )
    print("\n[faithful cluster execution]")
    print(f"  LOCAL rounds compressed : {faithful.local_rounds} "
          f"(in blocks of B={faithful.meta['block']})")
    print(f"  phases                  : {faithful.ledger.phases}")
    print("  MPC round bill by category:")
    for category, rounds in sorted(faithful.ledger.by_category.items()):
        print(f"    {category:18s} {rounds}")
    print(f"  total MPC rounds        : {faithful.mpc_rounds}")
    print(f"  peak machine words      : {faithful.ledger.peak_machine_words}")
    print(f"  space violations        : {len(faithful.ledger.violations)} (must be 0)")
    print(f"  certificate             : {faithful.certificate.satisfied} "
          f"(N'={faithful.certificate.n_prime}, |L0|={faithful.certificate.l0_size})")

    simulate = solve_allocation_mpc(
        instance, eps, lam=2, mode="simulate", sampler="keyed", seed=99,
        sample_budget=6,
    )
    identical = np.array_equal(faithful.allocation.x, simulate.allocation.x)
    print("\n[cross-mode check]")
    print(f"  simulate-mode output identical to faithful run: {identical}")
    print(f"  match weight: {faithful.match_weight:.3f}")


if __name__ == "__main__":
    main()
