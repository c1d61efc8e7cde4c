"""LOCAL-model oracle: a message-level simulator and Algorithm 1 on it.

:class:`LocalEngine` provides exact LOCAL semantics (delayed delivery,
edge-only communication, per-round accounting); the allocation vertex
program renders Algorithm 1 at message granularity as the reference
against which the vectorized solver is validated
(``tests/test_local_engine.py``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.utils.validation import check_fraction


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
# Synchronous LOCAL-model simulator.
#
# The LOCAL model (§2.2): processors sit on the graph's vertices and, in
# synchronous rounds, (1) receive the messages sent to them in the
# previous round, (2) compute arbitrarily, (3) send one message to any
# subset of their neighbours.  This engine reproduces those semantics
# exactly — including delayed delivery — and *enforces* the model's only
# communication constraint: messages travel along edges.
#
# The design mirrors the mpi4py send/recv idiom: per-vertex outboxes
# staged during a round, a barrier, then delivery.
# It is a reference implementation for validating the vectorized solvers
# (integration tests run both and compare trajectories), not a
# performance path; accounting counters make round/message costs
# inspectable.


@dataclass(frozen=True)
class Message:
    """A payload in flight from ``src`` to ``dst`` (both vertex ids)."""

    src: int
    dst: int
    payload: Any


@dataclass
class EngineStats:
    """Communication accounting across an execution."""

    rounds: int = 0
    messages: int = 0
    max_messages_per_round: int = 0
    max_inbox: int = 0              # peak per-vertex fan-in over all rounds

    def record_round(self, n_messages: int, max_inbox: int = 0) -> None:
        self.rounds += 1
        self.messages += n_messages
        self.max_messages_per_round = max(self.max_messages_per_round, n_messages)
        self.max_inbox = max(self.max_inbox, max_inbox)


class LocalAlgorithm(ABC):
    """A vertex program.

    ``setup`` initializes per-vertex state; ``round`` is invoked once
    per vertex per engine round with the messages delivered this round
    and returns ``(destination, payload)`` pairs to send.  Destinations
    must be neighbours — the engine raises otherwise, because breaking
    that rule silently would invalidate every round-count measurement.
    """

    @abstractmethod
    def setup(self, vertex: int, engine: "LocalEngine") -> Any:
        """Return the initial state of ``vertex``."""

    @abstractmethod
    def round(
        self,
        vertex: int,
        state: Any,
        inbox: Sequence[Message],
        round_index: int,
        engine: "LocalEngine",
    ) -> Sequence[tuple[int, Any]]:
        """Process one round at ``vertex``; return outgoing messages."""


class LocalEngine:
    """Executes a :class:`LocalAlgorithm` over an undirected adjacency.

    ``neighbors`` maps a vertex id to an integer array of neighbour
    ids.  States are owned by the engine and exposed via ``state_of``.
    """

    def __init__(self, n_vertices: int, neighbors: Callable[[int], np.ndarray]):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self.n_vertices = n_vertices
        self._neighbors = neighbors
        self._neighbor_sets: list[set[int]] = [
            set(int(w) for w in neighbors(v)) for v in range(n_vertices)
        ]
        self.states: list[Any] = [None] * n_vertices
        self.stats = EngineStats()
        self._pending: list[list[Message]] = [[] for _ in range(n_vertices)]
        self._algorithm: LocalAlgorithm | None = None

    # ------------------------------------------------------------------
    def attach(self, algorithm: LocalAlgorithm) -> None:
        """Bind an algorithm and run its per-vertex setup."""
        self._algorithm = algorithm
        for v in range(self.n_vertices):
            self.states[v] = algorithm.setup(v, self)
        self._pending = [[] for _ in range(self.n_vertices)]
        self.stats = EngineStats()

    def neighbors(self, vertex: int) -> np.ndarray:
        return self._neighbors(vertex)

    def state_of(self, vertex: int) -> Any:
        return self.states[vertex]

    # ------------------------------------------------------------------
    def run_round(self) -> int:
        """Execute one synchronous round; returns messages delivered."""
        if self._algorithm is None:
            raise RuntimeError("attach() an algorithm before running rounds")
        inboxes = self._pending
        self._pending = [[] for _ in range(self.n_vertices)]
        delivered = sum(len(box) for box in inboxes)
        staged: list[Message] = []
        round_index = self.stats.rounds
        for v in range(self.n_vertices):
            out = self._algorithm.round(
                v, self.states[v], inboxes[v], round_index, self
            )
            for dst, payload in out:
                if dst not in self._neighbor_sets[v]:
                    raise ValueError(
                        f"LOCAL violation: vertex {v} tried to message non-neighbour {dst}"
                    )
                staged.append(Message(src=v, dst=dst, payload=payload))
        # Barrier: deliver at the start of the next round.
        for msg in staged:
            self._pending[msg.dst].append(msg)
        # The freshly filled outboxes are the fan-in histogram.
        max_inbox = max((len(box) for box in self._pending), default=0)
        self.stats.record_round(len(staged), max_inbox)
        return delivered

    def run(self, rounds: int) -> EngineStats:
        """Execute ``rounds`` rounds; returns the accumulated stats."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        for _ in range(rounds):
            self.run_round()
        return self.stats


# ----------------------------------------------------------------------
# Algorithm 1 as a vertex program
# ----------------------------------------------------------------------
# Algorithm 1 as a per-vertex LOCAL program.
#
# This is the message-level rendering of the proportional dynamics: each
# Algorithm-1 round costs two LOCAL communication rounds,
#
# * an **odd** engine round in which every right vertex's β (as an
#   integer exponent) travels to its left neighbours, and
# * an **even** engine round in which every left vertex returns the
#   fractional value ``x_{u,v}`` it assigns to each neighbour, after
#   which right vertices aggregate ``alloc_v`` and move β one ε-step.
#
# Engine round 0 is the initial β broadcast, so τ Algorithm-1 rounds run
# in exactly ``2τ + 1`` engine rounds — the constant-factor LOCAL cost
# the paper's round statements absorb.
#
# Purpose: executable reference semantics.  The integration tests drive
# this program and the vectorized :class:`ProportionalRun` side by side
# and require bit-identical β trajectories (both use the same integer
# exponent representation, and x values agree to float tolerance).


@dataclass
class _LeftState:
    x_by_neighbor: dict[int, float] = field(default_factory=dict)


@dataclass
class _RightState:
    beta_exp: int = 0
    alloc: float = 0.0
    capacity: int = 1


class ProportionalVertexProgram(LocalAlgorithm):
    """The two-half-round message protocol described in the module doc.

    Vertex ids follow the merged space: left vertex ``u`` is ``u``,
    right vertex ``v`` is ``n_left + v``.
    """

    def __init__(self, graph: BipartiteGraph, capacities: np.ndarray, epsilon: float):
        self.graph = graph
        self.capacities = capacities
        self.epsilon = check_fraction(epsilon, "epsilon")
        self.n_left = graph.n_left

    def setup(self, vertex: int, engine: LocalEngine) -> Any:
        if vertex < self.n_left:
            return _LeftState()
        v = vertex - self.n_left
        return _RightState(beta_exp=0, capacity=int(self.capacities[v]))

    def round(
        self,
        vertex: int,
        state: Any,
        inbox: Sequence[Message],
        round_index: int,
        engine: LocalEngine,
    ) -> Sequence[tuple[int, Any]]:
        is_left = vertex < self.n_left
        if round_index % 2 == 0:
            # Even half-round: right vertices first fold in the x values
            # delivered this round (line 3-4 of Algorithm 1), then
            # re-broadcast their (possibly updated) priority.
            if is_left:
                return []
            if round_index > 0:
                self._aggregate_right(state, inbox)
            return [(int(w), ("beta", state.beta_exp)) for w in engine.neighbors(vertex)]
        # Odd half-round: left vertices split their unit mass (line 2).
        if is_left:
            betas = {msg.src: msg.payload[1] for msg in inbox if msg.payload[0] == "beta"}
            if not betas:
                return []
            # Same max-shifted computation as the vectorized path, so
            # the two implementations agree bit-for-bit on decisions.
            max_exp = max(betas.values())
            weights = {
                w: math.exp((b - max_exp) * math.log1p(self.epsilon))
                for w, b in betas.items()
            }
            denom = sum(weights.values())
            state.x_by_neighbor = {w: wt / denom for w, wt in weights.items()}
            return [(w, ("x", xv)) for w, xv in state.x_by_neighbor.items()]
        # Right vertices are silent in odd half-rounds.
        return []

    def _aggregate_right(self, state: _RightState, inbox: Sequence[Message]) -> None:
        """Lines 3-4 of Algorithm 1 at one right vertex."""
        alloc = 0.0
        for msg in inbox:
            kind, value = msg.payload
            if kind == "x":
                alloc += value
        state.alloc = alloc
        cap = float(state.capacity)
        if alloc <= cap / (1.0 + self.epsilon):
            state.beta_exp += 1
        elif alloc >= cap * (1.0 + self.epsilon):
            state.beta_exp -= 1


def merged_neighbors(graph: BipartiteGraph):
    """Neighbour function over the merged vertex space ``L ⊎ R``."""

    def neighbors(vertex: int) -> np.ndarray:
        if vertex < graph.n_left:
            return graph.left_neighbors(vertex) + graph.n_left
        return graph.right_neighbors(vertex - graph.n_left)

    return neighbors


def run_local_proportional(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    epsilon: float,
    tau: int,
) -> tuple[np.ndarray, np.ndarray, "LocalEngine"]:
    """Run τ Algorithm-1 rounds through the message-passing engine.

    Returns ``(beta_exp, alloc, engine)`` where the arrays mirror the
    vectorized :class:`ProportionalRun` state after ``tau`` rounds.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    program = ProportionalVertexProgram(graph, capacities, epsilon)
    engine = LocalEngine(graph.n_vertices, merged_neighbors(graph))
    engine.attach(program)
    # Engine rounds: 0 (broadcast), then τ pairs of (x, aggregate+broadcast).
    engine.run(2 * tau + 1)
    beta_exp = np.asarray(
        [engine.state_of(graph.n_left + v).beta_exp for v in range(graph.n_right)],
        dtype=np.int64,
    )
    alloc = np.asarray(
        [engine.state_of(graph.n_left + v).alloc for v in range(graph.n_right)],
        dtype=np.float64,
    )
    return beta_exp, alloc, engine
