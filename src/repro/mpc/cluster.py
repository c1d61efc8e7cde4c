"""The MPC cluster simulator.

An :class:`MPCCluster` is a set of :class:`Machine` objects advancing
in synchronous rounds.  One round = every machine maps over its local
records and emits ``(destination_machine, record)`` pairs; the cluster
prices the traffic, enforces the ``S`` words sent/received per machine
per round constraint, delivers, and enforces storage budgets (§2.3).

The substitution argument (DESIGN.md §4): round counts and space usage
are *model-level* quantities, so a simulator that enforces exactly the
model's constraints measures exactly the quantities Theorem 3 bounds.
Machines here are Python lists, but nothing about the accounting
depends on that — this module is the *object* reference substrate;
:mod:`repro.mpc.columnar` is the vectorized column-batch substrate
with identical accounting (DESIGN.md §7), selected via
:mod:`repro.mpc.substrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.mpc.machine import Machine, SpaceViolation, sizeof_words
from repro.utils.validation import check_positive_int

__all__ = [
    "MPCCluster",
    "cluster_for",
    "RoundLog",
    "storage_violation_msg",
    "traffic_violation_msg",
]

MapFn = Callable[[int, list[Any]], Iterable[tuple[int, Any]]]


def storage_violation_msg(machine_id: int, stored: int, capacity: int) -> str:
    """The storage-violation string both substrates record verbatim."""
    return f"machine {machine_id}: stored {stored} > {capacity}"


def traffic_violation_msg(machine_id: int, sent: int, capacity: int) -> str:
    """The traffic-violation string both substrates record verbatim."""
    return f"machine {machine_id}: sent {sent} > {capacity} in one round"


@dataclass(frozen=True)
class RoundLog:
    """Traffic summary of one executed round."""

    round_index: int
    label: str
    total_words_moved: int
    max_sent: int
    max_received: int


class MPCCluster:
    """Synchronous machines with word-accounted all-to-all exchange."""

    def __init__(
        self,
        n_machines: int,
        words_per_machine: int,
        *,
        strict: bool = True,
    ):
        n_machines = check_positive_int(n_machines, "n_machines")
        words_per_machine = check_positive_int(words_per_machine, "words_per_machine")
        self.machines = [Machine(i, words_per_machine) for i in range(n_machines)]
        self.words_per_machine = words_per_machine
        self.strict = strict
        self.rounds_executed = 0
        self.round_log: list[RoundLog] = []
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        return len(self.machines)

    def total_stored_words(self) -> int:
        return sum(m.stored_words for m in self.machines)

    def peak_global_words(self) -> int:
        return sum(m.peak_stored_words for m in self.machines)

    def peak_machine_words(self) -> int:
        """Worst per-machine storage high-water mark (words)."""
        return max(m.peak_stored_words for m in self.machines)

    def all_records(self) -> list[Any]:
        """Flatten every machine's storage (host-side readout; not a
        model operation and not charged as a round)."""
        out: list[Any] = []
        for m in self.machines:
            out.extend(m.storage)
        return out

    # ------------------------------------------------------------------
    def load(self, records: Sequence[Any], *, by: Callable[[Any], int] | None = None) -> None:
        """Place the input across machines (the model's 'arbitrary
        initial partition'; costs no rounds).  ``by`` maps a record to
        a machine id; default round-robin."""
        for m in self.machines:
            m.clear()
            m.begin_round()
        for i, rec in enumerate(records):
            dst = (by(rec) if by is not None else i % self.n_machines) % self.n_machines
            self.machines[dst].store(rec)
        self._check_storage()

    def exchange(self, map_fn: MapFn, *, label: str = "round") -> None:
        """Execute one synchronous round.

        Every machine's records are handed to ``map_fn(machine_id,
        records)``; emitted ``(dst, record)`` pairs are priced against
        both the sender's and receiver's per-round budgets, then
        delivered.  Records not re-emitted are dropped (map semantics —
        persist by emitting to yourself).
        """
        staged: list[list[tuple[int, Any]]] = [[] for _ in range(self.n_machines)]
        for m in self.machines:
            m.begin_round()
        for m in self.machines:
            records = m.clear()
            for dst, rec in map_fn(m.machine_id, records):
                if not (0 <= dst < self.n_machines):
                    raise ValueError(f"destination machine {dst} out of range")
                if dst != m.machine_id:
                    m.account_send(sizeof_words(rec))
                staged[dst].append((m.machine_id, rec))
        # Deliver; only remote arrivals count against the receive budget
        # (a machine re-storing its own records moves no data).
        for dst, arrivals in enumerate(staged):
            target = self.machines[dst]
            for src, rec in arrivals:
                if src != dst:
                    target.account_receive(sizeof_words(rec))
                target.store(rec)
        self.rounds_executed += 1
        total_moved = sum(m.sent_words_this_round for m in self.machines)
        log = RoundLog(
            round_index=self.rounds_executed,
            label=label,
            total_words_moved=total_moved,
            max_sent=max(m.sent_words_this_round for m in self.machines),
            max_received=max(m.received_words_this_round for m in self.machines),
        )
        self.round_log.append(log)
        self._check_traffic()
        self._check_storage()

    # ------------------------------------------------------------------
    def _check_storage(self) -> None:
        for m in self.machines:
            problems = []
            if m.stored_words > m.capacity_words:
                problems.append(
                    storage_violation_msg(m.machine_id, m.stored_words, m.capacity_words)
                )
            if problems:
                self.violations.extend(problems)
                if self.strict:
                    raise SpaceViolation("; ".join(problems))

    def _check_traffic(self) -> None:
        for m in self.machines:
            problems = []
            if m.sent_words_this_round > m.capacity_words:
                problems.append(
                    traffic_violation_msg(
                        m.machine_id, m.sent_words_this_round, m.capacity_words
                    )
                )
            if problems:
                self.violations.extend(problems)
                if self.strict:
                    raise SpaceViolation("; ".join(problems))


def cluster_for(
    total_words: int,
    n_for_alpha: int,
    alpha: float,
    *,
    slack: float = 4.0,
    strict: bool = True,
    substrate: str | None = None,
):
    """Build a cluster sized for the sublinear regime.

    ``S = slack · n^α`` words per machine (the constant ``slack``
    absorbs record framing, mirroring the O(·) in the theorem), and
    enough machines that the aggregate capacity is ``2×`` the input —
    the usual constant-factor headroom for shuffles.

    ``substrate`` selects the record representation (``"object"`` or
    ``"columnar"``, DESIGN.md §7); ``None`` defers to the active
    substrate (``SolverConfig(substrate=...)`` / ``use_substrate``).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    total_words = check_positive_int(total_words, "total_words")
    n_for_alpha = check_positive_int(n_for_alpha, "n_for_alpha")
    words = max(16, int(slack * n_for_alpha**alpha))
    n_machines = max(1, math.ceil(2.0 * total_words / words))
    from repro.mpc.substrate import make_cluster  # late: avoids import cycle

    return make_cluster(n_machines, words, strict=strict, substrate=substrate)
