"""Tests for the LOCAL engine and the message-level Algorithm 1.

The headline check: the message-passing program and the vectorized
solver produce *identical* β trajectories (integer exponents) and
matching allocs on every instance tried.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.proportional import ProportionalRun
from repro.graphs import build_graph
from repro.graphs.generators import star_instance, union_of_forests
from tests.local_reference import (
    LocalAlgorithm,
    LocalEngine,
    merged_neighbors,
    run_local_proportional,
)


class EchoCounter(LocalAlgorithm):
    """Counts pings: each vertex pings all neighbours every round."""

    def setup(self, vertex, engine):
        return {"received": 0}

    def round(self, vertex, state, inbox, round_index, engine):
        state["received"] += len(inbox)
        return [(int(w), "ping") for w in engine.neighbors(vertex)]


class Rogue(LocalAlgorithm):
    """Tries to message a non-neighbour — must be rejected."""

    def setup(self, vertex, engine):
        return None

    def round(self, vertex, state, inbox, round_index, engine):
        return [((vertex + 2) % engine.n_vertices, "bad")] if vertex == 0 else []


def path_engine():
    g = build_graph(2, 2, [0, 1, 1], [0, 0, 1])
    return g, LocalEngine(g.n_vertices, merged_neighbors(g))


def test_messages_delivered_next_round():
    g, engine = path_engine()
    engine.attach(EchoCounter())
    engine.run_round()
    # Nothing received in round 0 (no prior sends).
    assert all(engine.state_of(v)["received"] == 0 for v in range(4))
    engine.run_round()
    # Every vertex now received one ping per neighbour.
    degs = [1, 2, 2, 1]  # merged: L0, L1, R0, R1
    got = [engine.state_of(v)["received"] for v in range(4)]
    assert sorted(got) == sorted(degs)


def test_stats_accounting():
    g, engine = path_engine()
    engine.attach(EchoCounter())
    engine.run(3)
    assert engine.stats.rounds == 3
    assert engine.stats.messages == 3 * 2 * g.n_edges
    assert engine.stats.max_messages_per_round == 2 * g.n_edges
    # Peak fan-in: every vertex messages each neighbour every round, so
    # the busiest inbox matches the maximum merged degree (2 here).
    assert engine.stats.max_inbox == 2


def test_local_violation_rejected():
    g = build_graph(3, 3, [0, 1, 2], [0, 1, 2])
    engine = LocalEngine(g.n_vertices, merged_neighbors(g))
    engine.attach(Rogue())
    with pytest.raises(ValueError, match="LOCAL violation"):
        engine.run_round()


def test_run_requires_attach():
    g, engine = path_engine()
    with pytest.raises(RuntimeError):
        engine.run_round()


def test_negative_rounds_rejected():
    g, engine = path_engine()
    engine.attach(EchoCounter())
    with pytest.raises(ValueError):
        engine.run(-1)


# ----------------------------------------------------------------------
# Message-level Algorithm 1 ≡ vectorized fast path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("tau", [1, 3, 7])
def test_message_passing_matches_vectorized_star(tau):
    inst = star_instance(5, center_capacity=2)
    beta_msg, alloc_msg, _ = run_local_proportional(
        inst.graph, inst.capacities, 0.25, tau
    )
    run = ProportionalRun(inst.graph, inst.capacities, 0.25).run(tau)
    assert np.array_equal(beta_msg, run.beta_exp)
    assert np.allclose(alloc_msg, run.alloc, atol=1e-9)


@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_property_message_passing_equivalence(seed, tau):
    inst = union_of_forests(8, 6, 2, capacity=2, seed=seed)
    beta_msg, alloc_msg, engine = run_local_proportional(
        inst.graph, inst.capacities, 0.3, tau
    )
    run = ProportionalRun(inst.graph, inst.capacities, 0.3).run(tau)
    assert np.array_equal(beta_msg, run.beta_exp)
    assert np.allclose(alloc_msg, run.alloc, atol=1e-9)
    # Engine round count is exactly 2τ+1 (the documented correspondence).
    assert engine.stats.rounds == 2 * tau + 1


def test_run_local_proportional_validates_tau(small_star):
    with pytest.raises(ValueError):
        run_local_proportional(small_star.graph, small_star.capacities, 0.25, 0)
