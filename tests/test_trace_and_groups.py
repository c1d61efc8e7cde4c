"""Focused tests: trace records, phase-group bucketing, slow_spread
family invariants, exponentiation corner cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.proportional import ProportionalRun
from repro.core.sampled import SampledRun
from repro.core.trace import RoundTrace, run_with_trace
from repro.graphs import build_graph, degeneracy, exact_arboricity
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.mpc.columnar import ColumnarCluster
from repro.mpc.exponentiation import collect_balls


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

def test_trace_requires_completed_round(small_star):
    run = ProportionalRun(small_star.graph, small_star.capacities, 0.25)
    trace = RoundTrace()
    with pytest.raises(RuntimeError):
        trace.append_from_run(run)


def test_trace_without_certificate(small_forest_instance):
    inst = small_forest_instance
    run = ProportionalRun(inst.graph, inst.capacities, 0.25)
    run.step()
    trace = RoundTrace()
    rec = trace.append_from_run(run, with_certificate=False)
    assert rec.certificate is None
    assert trace.certificate_rounds() is None


def test_trace_match_weight_monotone_on_underloaded():
    # Plenty of capacity: the dynamics converge upward smoothly.
    inst = union_of_forests(20, 15, 2, capacity=5, seed=0)
    run = ProportionalRun(inst.graph, inst.capacities, 0.25)
    trace = run_with_trace(run, 6)
    weights = trace.match_weights()
    assert weights[-1] >= weights[0] - 1e-9


# ----------------------------------------------------------------------
# phase-group bucketing
# ----------------------------------------------------------------------

def test_right_side_groups_bucket_by_beta_u():
    # Two left vertices with very different β_u must land in different
    # buckets of their common right neighbour's group table.
    # L0 sees {R0}, L1 sees {R0, R1..R9} — after forcing exponents the
    # β_u values split decisively.
    eu = [0] + [1] * 10
    ev = [0] + list(range(10))
    g = build_graph(2, 10, eu, ev)
    caps = np.ones(10, dtype=np.int64)
    run = SampledRun(g, caps, 0.25, block=2, sample_budget=4, seed=0)
    run.beta_exp = np.array([10] + [0] * 9, dtype=np.int64)
    left_groups, right_groups = run.build_phase_groups()
    # R0's neighbourhood {L0, L1}: β_{L0} = (1+ε)^10 ≫ β_{L1} ≈ 10 ·
    # shifted scale — they must not share a bucket.
    r0_groups = [
        gidx for gidx in range(right_groups.n_groups)
        if right_groups.group_row[gidx] == 0
    ]
    assert len(r0_groups) == 2


def test_left_side_groups_use_exact_exponents():
    g = build_graph(1, 4, [0, 0, 0, 0], [0, 1, 2, 3])
    caps = np.ones(4, dtype=np.int64)
    run = SampledRun(g, caps, 0.25, block=1, sample_budget=2, seed=0)
    run.beta_exp = np.array([3, 3, -2, 0], dtype=np.int64)
    left_groups, _ = run.build_phase_groups()
    keys = sorted(left_groups.group_key.tolist())
    assert keys == [-2, 0, 3]
    sizes = {int(k): int(s) for k, s in zip(left_groups.group_key, left_groups.group_sizes)}
    assert sizes[3] == 2


# ----------------------------------------------------------------------
# slow_spread family
# ----------------------------------------------------------------------

def test_slow_spread_structure():
    inst = slow_spread_instance(4, width=3)
    g = inst.graph
    assert g.n_left == 12
    assert g.n_right == 4 + 12
    # Every left vertex: 4 core neighbours + 1 private fringe vertex.
    assert np.all(g.left_degrees == 5)
    # Fringe vertices have degree exactly 1.
    assert np.all(g.right_degrees[4:] == 1)
    assert np.all(inst.capacities == 1)


def test_slow_spread_arboricity_certificate():
    for b in (2, 3, 5):
        inst = slow_spread_instance(b, width=3)
        lam = exact_arboricity(inst.graph).value
        assert lam <= inst.arboricity_upper_bound
        # The dense core keeps λ near b.
        assert lam >= max(1, b - 1)


@given(st.integers(2, 8), st.integers(2, 5))
@settings(max_examples=15, deadline=None)
def test_property_slow_spread_certificate_round_bounded(b, width):
    from repro.core import params
    from repro.core.local_driver import solve_fractional_until_certificate

    inst = slow_spread_instance(b, width=width)
    res = solve_fractional_until_certificate(inst, 0.25)
    assert res.rounds <= params.tau_two_approx(b + 1, 0.25)


# ----------------------------------------------------------------------
# exponentiation corner cases
# ----------------------------------------------------------------------

def test_collect_balls_radius_exceeds_diameter():
    edges = [(0, 1), (1, 2)]
    c = ColumnarCluster(2, 10_000)
    balls, _ = collect_balls(c, 3, edges, radius=8)
    # Whole graph in every ball once the radius covers the diameter.
    assert balls[0] == ((0, 1), (1, 2))
    assert balls[2] == ((0, 1), (1, 2))


def test_collect_balls_isolated_vertex():
    c = ColumnarCluster(2, 10_000)
    balls, _ = collect_balls(c, 4, [(0, 1)], radius=2)
    assert balls[3] == ()


def test_collect_balls_disconnected_components():
    edges = [(0, 1), (2, 3)]
    c = ColumnarCluster(3, 10_000)
    balls, _ = collect_balls(c, 4, edges, radius=4)
    assert balls[0] == ((0, 1),)
    assert balls[2] == ((2, 3),)
