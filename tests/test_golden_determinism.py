"""Golden regression tests: frozen outputs for fixed seeds.

These pin exact numeric outcomes of the deterministic pipeline so that
refactors cannot silently change algorithm semantics.  If one of these
fails after an intentional semantic change, regenerate the constants
with the printed values — but treat any unexpected diff as a bug.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Engine
from repro.baselines.greedy import greedy_allocation
from repro.boosting.boost import boost_allocation
from repro.core.proportional import ProportionalRun
from repro.core.sampled import SampledRun
from repro.core.termination import evaluate_certificate
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.rounding.sampling import round_once
from repro.core.local_driver import solve_fractional_fixed_tau


def test_golden_proportional_trajectory():
    inst = union_of_forests(30, 24, 3, capacity=2, seed=123)
    run = ProportionalRun(inst.graph, inst.capacities, 0.25)
    run.run(10)
    # Level-set histogram after 10 rounds is a complete fingerprint of
    # the integer-exponent trajectory.
    hist = run.level_histogram()
    assert hist.sum() == 24
    assert run.beta_exp.min() >= -10 and run.beta_exp.max() <= 10
    # Total capacity (48) exceeds the active left mass, so the dynamics
    # allocate every unit: weight = |active L| = 30, exactly.
    assert run.match_weight() == pytest.approx(30.0, abs=1e-9)


def test_golden_certificate_round():
    inst = slow_spread_instance(8, width=4)
    run = ProportionalRun(inst.graph, inst.capacities, 0.1)
    fired = None
    for r in range(1, 64):
        run.step()
        if evaluate_certificate(run).satisfied:
            fired = r
            break
    assert fired == 17


def test_golden_sampled_run():
    inst = union_of_forests(20, 16, 2, capacity=2, seed=7)
    run = SampledRun(
        inst.graph, inst.capacities, 0.25, block=2, sample_budget=8,
        sampler="keyed", seed=99,
    )
    run.run_rounds(6)
    assert run.rounds_completed == 6
    assert run.match_weight() == pytest.approx(20.0, abs=1e-9)


def test_golden_rounding_size():
    inst = union_of_forests(40, 30, 2, capacity=2, seed=11)
    frac = solve_fractional_fixed_tau(inst, 0.25).allocation
    out = round_once(inst.graph, inst.capacities, frac, seed=2024)
    assert out.size == int(out.edge_mask.sum())
    # Frozen: the exact sampled size for this (instance, seed).
    assert out.size == 9


def test_golden_values_stable_across_runs():
    """The same constructions twice — catches hidden global state."""
    vals = []
    for _ in range(2):
        inst = union_of_forests(25, 20, 2, capacity=2, seed=5)
        run = ProportionalRun(inst.graph, inst.capacities, 0.2).run(8)
        vals.append((run.match_weight(), tuple(run.beta_exp.tolist())))
    assert vals[0] == vals[1]


def _service_transcript() -> list[tuple]:
    """One canonical service conversation, reduced to a comparable
    transcript: (op, warm_start, seed_used, final_size) per solve."""
    import asyncio
    import tempfile

    from repro.graphs.generators import power_law_instance
    from repro.serve.service import AllocationService, ServiceClient
    from repro.serve import instance_hash

    instance = power_law_instance(n_left=60, n_right=24, seed=3)
    h = instance_hash(instance)

    async def run():
        service = AllocationService(
            tempfile.mkdtemp(prefix="golden_service_"),
            seed=0,
            session_kwargs={"epsilon": 0.2},
        )
        await service.start()
        loop = asyncio.get_running_loop()

        def conversation():
            rows = []
            with ServiceClient(service.socket_path) as client:
                client.open(instance)
                for request in (
                    {},                                       # cursor seed 0
                    {"capacity_updates": {"0": 3}},           # cursor seed 1
                    {"seed": 77},                             # explicit seed
                    {},                                       # cursor seed 2
                ):
                    r = client.solve(h, **request)
                    rows.append((
                        "solve",
                        r["warm_start"],
                        r["seed_used"],
                        r["report"]["summary"]["final_size"],
                    ))
            return rows

        rows = await loop.run_in_executor(None, conversation)
        await service.stop()
        return rows

    return asyncio.run(run())


def test_golden_service_transcript():
    """The full wire path — open, seed cursor, warm lineage — is a
    deterministic function of (instance, service seed, request order).

    Pins the structural fingerprint (warm flags, seed equality
    pattern, sizes stable across identical runs) rather than raw seed
    integers, so the golden survives platforms while still catching
    any change to cursor derivation or warm-start plumbing.
    """
    first = _service_transcript()
    second = _service_transcript()
    # Bit-stable across service lifetimes (fresh store each time).
    assert first == second
    warm_flags = [row[1] for row in first]
    assert warm_flags == [False, True, True, True]
    assert first[2][2] == 77                      # explicit seed honored
    seeds = [row[2] for row in first]
    assert len({seeds[0], seeds[1], seeds[3]}) == 3   # distinct cursor draws
    assert all(row[3] > 0 for row in first)


def _mask_sha256(mask: np.ndarray) -> str:
    return hashlib.sha256(np.packbits(np.asarray(mask, dtype=bool)).tobytes()).hexdigest()


# (start, layer_matcher, augmentations, sha256 of the packed boosted mask)
# on union_of_forests(200, 90, 3, capacity=2, seed=0), boosted at ε = 0.25
# (k = 4) for 60 iterations with seed 3.  The benchmark workloads never
# augment, so these are what pins the layered path walk itself.
_GOLDEN_BOOSTS = [
    ("empty", "greedy", 179, "181b08369167825ac5fb18763fe3922384bcc9b64bbeb2d3c3f0747df6da73e7"),
    ("empty", "proportional", 180, "8ece66db0cb984aef006277fea2e28e355a49ac75f7501c60d58f6474b3a3a66"),
    ("greedy", "greedy", 12, "d1fddd1c2fa0fe9bcca1e6dc351cc8baeb6cfcee8326c6f84ece4ad803b27dd3"),
    ("greedy", "proportional", 13, "50bdd5d63334748abdc5f628e9c6bd9e1585e74163f56123a4c6ffba28314685"),
]


@pytest.mark.parametrize("start,matcher,augmentations,digest", _GOLDEN_BOOSTS)
def test_golden_layered_boost(start, matcher, augmentations, digest):
    inst = union_of_forests(200, 90, 3, capacity=2, seed=0)
    if start == "empty":
        mask = np.zeros(inst.graph.n_edges, dtype=bool)
    else:
        mask = greedy_allocation(inst.graph, inst.capacities, order="random", seed=0)
    res = boost_allocation(
        inst, mask, 0.25, iterations=60, layer_matcher=matcher, seed=3
    )
    assert res.augmentations == augmentations
    assert _mask_sha256(res.edge_mask) == digest


def test_golden_default_engine_solve():
    """The default solve (boost on) on the cold-solve benchmark graph."""
    report = Engine().solve(slow_spread_instance(32, width=40), seed=0)
    assert report.size == 1280
    assert report.result.boosting.augmentations == 0
    assert _mask_sha256(report.edge_mask) == (
        "c71a72fa47bd59332ed96a3b0ba7e972c01e09e9bb6711ad2acf4b4fd03ec3bb"
    )
