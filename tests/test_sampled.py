"""Tests for Algorithm 2 (sampled phases) and the Lemma 13 machinery."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import params
from repro.core.adaptive import (
    K_MAX,
    K_MIN,
    RandomizedThresholds,
    reconstruct_round_thresholds,
)
from repro.core.mpc_driver import solve_allocation_mpc
from repro.core.proportional import ProportionalRun, ReplayThresholds
from repro.core.sampled import (
    FastSampler,
    KeyedSampler,
    SampledRun,
    build_side_groups,
)
from repro.graphs.generators import (
    SIZED_FAMILIES,
    planted_dense_core_instance,
    star_instance,
    union_of_forests,
)

from tests.conftest import assert_feasible_fractional


# ----------------------------------------------------------------------
# Side groups
# ----------------------------------------------------------------------

def test_build_side_groups_partition():
    indptr = np.array([0, 3, 3, 5], dtype=np.int64)
    keys = np.array([2, 1, 2, 0, 0], dtype=np.int64)
    groups = build_side_groups(indptr, keys)
    # Row 0 has keys {1: one slot, 2: two slots}; row 2 has {0: two}.
    assert groups.n_groups == 3
    assert groups.group_row.tolist() == [0, 0, 2]
    assert groups.group_key.tolist() == [1, 2, 0]
    assert groups.group_sizes.tolist() == [1, 2, 2]
    # slot_order covers all slots exactly once.
    assert sorted(groups.slot_order.tolist()) == list(range(5))
    # Slots in each group indeed carry the group key and row.
    gid = groups.position_group_ids()
    for pos in range(5):
        slot = groups.slot_order[pos]
        g = gid[pos]
        assert keys[slot] == groups.group_key[g]


def test_build_side_groups_empty():
    groups = build_side_groups(np.array([0, 0], dtype=np.int64), np.empty(0, dtype=np.int64))
    assert groups.n_groups == 0
    assert groups.group_sizes.size == 0


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------

def _demo_groups():
    indptr = np.array([0, 6, 10], dtype=np.int64)
    keys = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 0], dtype=np.int64)
    return build_side_groups(indptr, keys)


@pytest.mark.parametrize("sampler_cls", [KeyedSampler, FastSampler])
def test_sampler_budget_respected(sampler_cls):
    groups = _demo_groups()
    sampler = sampler_cls(seed=0)
    pos = sampler.sample_positions(groups, 0, 0, budget=2)
    gid = groups.position_group_ids()
    counts = np.bincount(gid[pos], minlength=groups.n_groups)
    assert np.all(counts == np.minimum(2, groups.group_sizes))
    # No duplicate positions.
    assert len(set(pos.tolist())) == pos.size


@pytest.mark.parametrize("sampler_cls", [KeyedSampler, FastSampler])
def test_sampler_full_budget_takes_everything(sampler_cls):
    groups = _demo_groups()
    sampler = sampler_cls(seed=1)
    pos = sampler.sample_positions(groups, 0, 3, budget=100)
    assert sorted(pos.tolist()) == list(range(groups.n_slots))


def test_keyed_sampler_reproducible_per_vertex():
    groups = _demo_groups()
    a = KeyedSampler(seed=42).sample_positions(groups, 0, 5, budget=2)
    b = KeyedSampler(seed=42).sample_positions(groups, 0, 5, budget=2)
    assert np.array_equal(a, b)
    c = KeyedSampler(seed=43).sample_positions(groups, 0, 5, budget=2)
    assert not np.array_equal(a, c) or groups.n_slots <= 2


def test_fast_sampler_varies_between_rounds():
    groups = _demo_groups()
    sampler = FastSampler(seed=0)
    a = sampler.sample_positions(groups, 0, 0, budget=2)
    b = sampler.sample_positions(groups, 0, 1, budget=2)
    assert not np.array_equal(a, b)


# ----------------------------------------------------------------------
# SampledRun ≡ exact run under full sampling
# ----------------------------------------------------------------------

@pytest.mark.parametrize("sampler", ["keyed", "fast"])
def test_full_budget_matches_algorithm1(sampler):
    inst = union_of_forests(30, 24, 3, capacity=2, seed=7)
    eps = 0.25
    tau = 10
    exact = ProportionalRun(inst.graph, inst.capacities, eps).run(tau)
    sampled = SampledRun(
        inst.graph, inst.capacities, eps, block=3,
        sample_budget=10**6, sampler=sampler, seed=0,
    ).run_rounds(tau)
    assert np.array_equal(exact.beta_exp, sampled.beta_exp)
    assert np.allclose(exact.alloc, sampled.alloc, atol=1e-9)
    assert sampled.match_weight() == pytest.approx(exact.match_weight())


# ----------------------------------------------------------------------
# The exact regime: no grouping or sampling, Algorithm 1's decisions
# ----------------------------------------------------------------------

EXACT_ROUNDS = 8


@pytest.mark.parametrize("family", sorted(SIZED_FAMILIES))
def test_exact_path_is_algorithm1_on_the_zoo(family):
    """With estimates unrecorded and the default budget, every round's
    β, x and alloc equal ProportionalRun's bit for bit, cold and warm,
    with one-round phases and with phases of three rounds."""
    for n, seed, eps in itertools.product((60, 400), range(3), (0.1, 0.25)):
        inst = SIZED_FAMILIES[family](n, seed=seed)
        g, caps = inst.graph, inst.capacities
        warm = np.random.default_rng(seed).integers(-3, 4, size=g.n_right)
        for start in (None, warm):
            ref = ProportionalRun(g, caps, eps, initial_exponents=start)
            run = SampledRun(
                g, caps, eps, block=1, seed=seed, record_estimates=False,
                initial_exponents=start,
            )
            assert run.sample_budget >= g.max_degree
            for _ in range(EXACT_ROUNDS):
                run.run_phase()
                ref.step()
                assert np.array_equal(run.beta_exp, ref.beta_exp)
                assert np.array_equal(run.x_slots, ref.x_slots)
                assert np.array_equal(run.alloc, ref.alloc)
            assert run.exact_rounds == EXACT_ROUNDS
            phased = SampledRun(
                g, caps, eps, block=3, seed=seed, record_estimates=False,
                initial_exponents=start,
            ).run_rounds(EXACT_ROUNDS)
            assert phased.exact_rounds == EXACT_ROUNDS
            assert np.array_equal(phased.beta_exp, ref.beta_exp)
            assert np.array_equal(phased.x_slots, ref.x_slots)
            assert np.array_equal(phased.alloc, ref.alloc)


@pytest.fixture
def sampler_calls(monkeypatch):
    """Count ``sample_positions`` calls per sampler class."""
    calls = {KeyedSampler: 0, FastSampler: 0}
    for cls in calls:
        def counting(self, *args, _cls=cls, _real=cls.sample_positions, **kwargs):
            calls[_cls] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "sample_positions", counting)
    return calls


@pytest.mark.parametrize("sampler", ["keyed", "fast"])
def test_exact_path_selection(sampler, sampler_calls):
    inst = union_of_forests(40, 30, 3, capacity=2, seed=5)
    g, caps = inst.graph, inst.capacities
    cls = KeyedSampler if sampler == "keyed" else FastSampler
    rounds = 4

    def run(**kwargs):
        sampler_calls[cls] = 0
        out = SampledRun(
            g, caps, 0.25, block=2, sampler=sampler, seed=0, **kwargs
        ).run_rounds(rounds)
        return sampler_calls[cls], out.exact_rounds

    # The default budget and a budget of exactly the max degree are exact.
    assert run(record_estimates=False) == (0, rounds)
    assert run(record_estimates=False, sample_budget=g.max_degree) == (0, rounds)
    # One slot short of the largest neighbourhood, or recording
    # estimates: both sides sample every round.
    assert run(record_estimates=False, sample_budget=g.max_degree - 1) == (2 * rounds, 0)
    assert run(record_estimates=True) == (2 * rounds, 0)

    # The test runs per phase: a budget lowered between phases (as the
    # adaptive policy does) samples in that phase only.
    sampler_calls[cls] = 0
    mixed = SampledRun(g, caps, 0.25, block=2, sampler=sampler, seed=0, record_estimates=False)
    mixed.run_phase()
    mixed.sample_budget = g.max_degree - 1
    mixed.run_phase()
    mixed.sample_budget = g.max_degree
    mixed.run_phase()
    assert sampler_calls[cls] == 2 * 2
    assert (mixed.exact_rounds, mixed.rounds_completed) == (4, 6)


def test_meta_reports_the_regime():
    inst = union_of_forests(20, 16, 2, capacity=2, seed=1)
    d = inst.graph.max_degree
    simulate = solve_allocation_mpc(inst, 0.2, lam=2, seed=7)
    assert simulate.meta["max_degree"] == d
    assert simulate.meta["sample_budget"] >= d
    assert simulate.meta["exact_regime"] is True

    faithful = dict(lam=2, mode="faithful", seed=7, space_slack=512.0)
    for budget, exact in ((None, True), (d, True), (d - 1, False)):
        res = solve_allocation_mpc(inst, 0.2, sample_budget=budget, **faithful)
        assert res.meta["max_degree"] == d
        assert res.meta["exact_regime"] is exact, budget

    # Adaptive faithful: the controller ramps 1, 2, 4, 8 before it
    # reaches the cap (the max degree).  Those phases sample, so the
    # run is not exact though its later phases are.
    inst = union_of_forests(48, 48, 2, capacity=2, seed=3)
    d = inst.graph.max_degree
    adaptive = solve_allocation_mpc(
        inst, 0.2, lam=2, mode="faithful", seed=0, sample_budget=d,
        block_override=1, space_slack=4096.0, certificate_cadence="per_guess",
        budget_policy="adaptive",
    )
    budgets = [row["sample_budget"] for row in adaptive.ledger.trajectory]
    assert min(budgets) < d and max(budgets) == d
    assert adaptive.meta["max_degree"] == d
    assert adaptive.meta["exact_regime"] is False


def test_theoretical_budget_is_exact_at_small_scale():
    inst = union_of_forests(15, 12, 2, capacity=2, seed=3)
    eps = 0.25
    run = SampledRun(inst.graph, inst.capacities, eps, block=2, seed=1)
    # Theoretical t is astronomically larger than any group here.
    assert run.sample_budget >= params.sample_size(2, eps, 27)
    run.run_rounds(6)
    exact = ProportionalRun(inst.graph, inst.capacities, eps).run(6)
    assert np.array_equal(run.beta_exp, exact.beta_exp)
    for report in run.phase_reports:
        assert report.max_beta_error() == pytest.approx(0.0, abs=1e-9)
        assert report.max_alloc_error() == pytest.approx(0.0, abs=1e-9)


def test_subsampled_run_stays_feasible_and_close():
    inst = planted_dense_core_instance(6, 6, 40, 40, seed=2)
    eps = 0.25
    run = SampledRun(
        inst.graph, inst.capacities, eps, block=3, sample_budget=8,
        sampler="fast", seed=5,
    )
    run.run_rounds(12)
    out = run.fractional_allocation()
    assert_feasible_fractional(inst.graph, inst.capacities, out.x)
    # Estimates with budget 8 should be within a crude factor.
    for report in run.phase_reports:
        assert report.max_beta_error() < 1.5


def test_estimate_errors_shrink_with_budget():
    inst = planted_dense_core_instance(8, 8, 30, 30, seed=4)
    eps = 0.25
    errs = []
    for budget in (2, 64):
        run = SampledRun(
            inst.graph, inst.capacities, eps, block=2,
            sample_budget=budget, sampler="fast", seed=9,
        )
        run.run_phase()
        errs.append(run.phase_reports[0].max_alloc_error())
    assert errs[1] <= errs[0] + 1e-12


def test_pooled_estimator_also_exact_at_full_budget():
    inst = union_of_forests(20, 15, 2, capacity=2, seed=11)
    eps = 0.25
    run = SampledRun(
        inst.graph, inst.capacities, eps, block=2, sample_budget=10**6,
        estimator="pooled", seed=0,
    )
    run.run_rounds(6)
    exact = ProportionalRun(inst.graph, inst.capacities, eps).run(6)
    assert np.array_equal(run.beta_exp, exact.beta_exp)


def test_run_rounds_partial_phase():
    inst = union_of_forests(10, 8, 2, seed=0)
    run = SampledRun(inst.graph, inst.capacities, 0.25, block=4, sample_budget=10)
    run.run_rounds(6)  # one full phase of 4, one partial of 2
    assert run.rounds_completed == 6
    assert run.phases_completed == 2


def test_invalid_configs_rejected(small_forest_instance):
    inst = small_forest_instance
    with pytest.raises(ValueError):
        SampledRun(inst.graph, inst.capacities, 0.25, block=2, estimator="bogus")
    with pytest.raises(ValueError):
        SampledRun(inst.graph, inst.capacities, 0.25, block=2, sampler="bogus")
    with pytest.raises(ValueError):
        SampledRun(inst.graph, inst.capacities, 0.25, block=0)
    run = SampledRun(inst.graph, inst.capacities, 0.25, block=2)
    with pytest.raises(RuntimeError):
        run.match_weight()


# ----------------------------------------------------------------------
# Lemma 13: threshold reconstruction
# ----------------------------------------------------------------------

def test_reconstruct_case_analysis():
    eps = 0.25
    caps = np.ones(7)
    alloc = np.array([0.5, 0.99, 2.0, 1.05, 1.0, 3.0, 0.0])
    decisions = np.array([1, 1, -1, -1, 0, 0, 1])
    witness = reconstruct_round_thresholds(alloc, caps, decisions, eps)
    assert witness.feasible.tolist() == [True, False, True, False, True, False, True]
    k = witness.k
    assert np.all((k >= K_MIN) & (k <= K_MAX))
    # Spot-check semantics for feasible entries.
    for i in np.nonzero(witness.feasible)[0]:
        thr_lo = caps[i] / (1 + k[i] * eps)
        thr_hi = caps[i] * (1 + k[i] * eps)
        if decisions[i] == 1:
            assert alloc[i] <= thr_lo + 1e-12
        elif decisions[i] == -1:
            assert alloc[i] >= thr_hi - 1e-12
        else:
            assert thr_lo < alloc[i] < thr_hi


def test_reconstruct_zero_alloc_keep_infeasible():
    witness = reconstruct_round_thresholds(
        np.array([0.0]), np.array([1.0]), np.array([0]), 0.25
    )
    assert not witness.feasible[0]


def test_reconstruct_shape_mismatch():
    with pytest.raises(ValueError):
        reconstruct_round_thresholds(
            np.zeros(2), np.ones(3), np.zeros(2, dtype=int), 0.25
        )


def test_lemma13_replay_on_sampled_run():
    """End-to-end Lemma 13: reconstruct thresholds from a sampled run's
    decisions + true allocs, then replay Algorithm 3 with them and
    recover the identical β trajectory."""
    inst = union_of_forests(25, 20, 2, capacity=2, seed=21)
    eps = 0.25
    tau = 8
    sampled = SampledRun(
        inst.graph, inst.capacities, eps, block=2, sample_budget=16,
        sampler="keyed", seed=2,
    ).run_rounds(tau)

    tables = []
    all_feasible = True
    for report in sampled.phase_reports:
        for rnd in report.rounds:
            witness = reconstruct_round_thresholds(
                rnd.alloc_true, inst.capacities, rnd.decisions, eps
            )
            all_feasible = all_feasible and witness.all_feasible
            tables.append(witness.k)
    if not all_feasible:
        pytest.skip("estimation failure event hit (low budget); Lemma 13 is a whp claim")
    replay = ProportionalRun(
        inst.graph, inst.capacities, eps, thresholds=ReplayThresholds(table=tables)
    ).run(tau)
    assert np.array_equal(replay.beta_exp, sampled.beta_exp)


def test_randomized_thresholds_range():
    sched = RandomizedThresholds(k0=4.0, seed=0)
    k = sched.thresholds(0, 100)
    assert np.all((k >= 0.25) & (k <= 4.0))
    with pytest.raises(ValueError):
        RandomizedThresholds(k0=0.5)


def test_theorem16_randomized_thresholds_keep_guarantee():
    """Theorem 16: any thresholds in [1/4, 4] still give 2+(2·4+8)ε."""
    from repro.baselines.exact import optimum_value

    eps = 0.2
    inst = union_of_forests(30, 25, 2, capacity=2, seed=17)
    run = ProportionalRun(
        inst.graph, inst.capacities, eps,
        thresholds=RandomizedThresholds(k0=4.0, seed=3),
    )
    run.run(params.tau_two_approx(2, eps))
    opt = optimum_value(inst)
    factor = params.approx_factor_adaptive(eps, 4.0)
    assert opt <= factor * run.match_weight() + 1e-9


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_property_full_budget_equivalence(seed):
    inst = union_of_forests(12, 10, 2, capacity=2, seed=seed)
    eps = 0.3
    exact = ProportionalRun(inst.graph, inst.capacities, eps).run(5)
    sampled = SampledRun(
        inst.graph, inst.capacities, eps, block=2, sample_budget=10**6, seed=seed
    ).run_rounds(5)
    assert np.array_equal(exact.beta_exp, sampled.beta_exp)


@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
@settings(max_examples=10, deadline=None)
def test_property_sampled_output_feasible(seed, budget):
    inst = union_of_forests(14, 12, 2, capacity=2, seed=seed)
    run = SampledRun(
        inst.graph, inst.capacities, 0.25, block=2, sample_budget=budget,
        sampler="fast", seed=seed,
    ).run_rounds(6)
    out = run.fractional_allocation()
    assert_feasible_fractional(inst.graph, inst.capacities, out.x)
