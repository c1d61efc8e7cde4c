"""Parity oracle for :mod:`repro.mpc` and the faithful MPC driver.

The per-record cluster the columnar one replaced, kept verbatim in
behaviour: machines are Python lists of tuples, records are priced by
recursive :func:`sizeof_words` traversal, and every round runs through
a per-record map callback.  Each primitive below is the object half of
the function of the same name in :mod:`repro.mpc`; they walk the same
round schedules and charge the same words, so the parity tests
(``tests/test_columnar_substrate.py`` and the driver-level checks) hold
the shipped columnar code to these ledgers, counters, violation
strings and numbers bit for bit.

The pure helpers both implementations share (tree shapes, splitter
choice, ball frontiers, the ledger row and violation strings, the
phase's sampled graph) are imported from ``src/``, not copied.

:func:`per_record_driver` runs :func:`repro.core.mpc_driver.solve_allocation_mpc`
on this cluster by swapping the driver's three cluster-facing names
(``cluster_for``, ``_faithful_phase``, ``_faithful_certificate_test``)
for the ones defined here.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np
import pytest

import repro.core.mpc_driver as mpc_driver
from repro import mpc
from repro.core.mpc_driver import (
    MPCRoundLedger,
    _category_words_moved,
    _phase_sampled_edges,
)
from repro.core.sampled import SampledRun
from repro.core.termination import CertificateStatus
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.kernels import scatter_add
from repro.mpc import RoundLog, SpaceViolation
from repro.mpc.columnar import (
    ColumnarCluster,
    storage_violation_msg,
    traffic_violation_msg,
)
from repro.mpc.exponentiation import (
    BALL_TAG,
    _frontier,
    _truncate,
    ball_record_words,
)
from repro.mpc.primitives import _pick_splitters, _tree_level, fan_out, tree_depth
from repro.mpc.simulation import DirectSimulationResult
from repro.utils.validation import check_fraction, check_positive_int


# ----------------------------------------------------------------------
# Machines and word pricing
# ----------------------------------------------------------------------
def sizeof_words(record: Any) -> int:
    """Word cost of a record: scalars are 1; containers are the sum of
    their items; strings cost 1 (tags/labels)."""
    if record is None or isinstance(record, (bool, int, float, str)):
        return 1
    if isinstance(record, (tuple, list)):
        return sum(sizeof_words(item) for item in record)
    if isinstance(record, dict):
        return sum(sizeof_words(k) + sizeof_words(v) for k, v in record.items())
    # numpy scalars
    if hasattr(record, "item") and not hasattr(record, "__len__"):
        return 1
    if hasattr(record, "__len__"):
        return sum(sizeof_words(item) for item in record)
    raise TypeError(f"cannot price record of type {type(record).__name__}")


@dataclass
class Machine:
    """Storage plus bookkeeping for one machine."""

    machine_id: int
    capacity_words: int
    storage: list[Any] = field(default_factory=list)
    stored_words: int = 0
    peak_stored_words: int = 0
    sent_words_this_round: int = 0
    received_words_this_round: int = 0
    peak_traffic_words: int = 0

    def store(self, record: Any) -> None:
        self.storage.append(record)
        self.stored_words += sizeof_words(record)
        self.peak_stored_words = max(self.peak_stored_words, self.stored_words)

    def clear(self) -> list[Any]:
        """Drop and return all records (start of a map step)."""
        out = self.storage
        self.storage = []
        self.stored_words = 0
        return out

    def begin_round(self) -> None:
        self.sent_words_this_round = 0
        self.received_words_this_round = 0

    def account_send(self, words: int) -> None:
        self.sent_words_this_round += words
        self.peak_traffic_words = max(self.peak_traffic_words, self.sent_words_this_round)

    def account_receive(self, words: int) -> None:
        self.received_words_this_round += words
        self.peak_traffic_words = max(
            self.peak_traffic_words, self.received_words_this_round
        )

    def check_budget(self, *, strict: bool) -> list[str]:
        """Return human-readable violations; raise when ``strict``."""
        problems: list[str] = []
        if self.stored_words > self.capacity_words:
            problems.append(
                f"machine {self.machine_id}: stored {self.stored_words} words "
                f"> capacity {self.capacity_words}"
            )
        if self.sent_words_this_round > self.capacity_words:
            problems.append(
                f"machine {self.machine_id}: sent {self.sent_words_this_round} words "
                f"in one round > capacity {self.capacity_words}"
            )
        if self.received_words_this_round > self.capacity_words:
            problems.append(
                f"machine {self.machine_id}: received {self.received_words_this_round} "
                f"words in one round > capacity {self.capacity_words}"
            )
        if strict and problems:
            raise SpaceViolation("; ".join(problems))
        return problems


MapFn = Callable[[int, list[Any]], Iterable[tuple[int, Any]]]


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


def cluster_for(*args, **kwargs) -> MPCCluster:
    """:func:`repro.mpc.cluster_for`'s sizing, on the per-record cluster."""
    sized = mpc.cluster_for(*args, **kwargs)
    return MPCCluster(sized.n_machines, sized.words_per_machine, strict=sized.strict)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def route_by_key(
    cluster: MPCCluster,
    key_fn: Callable[[Any], int],
    *,
    label: str = "route_by_key",
    return_histogram: bool = False,
) -> np.ndarray | None:
    """Move every record to machine ``key_fn(record) mod M`` (1 round)."""
    if not callable(key_fn):
        raise TypeError("object-substrate route_by_key needs a per-record key_fn")
    n = cluster.n_machines
    destinations: list[int] | None = [] if return_histogram else None

    def mapper(mid: int, records: list[Any]):
        for rec in records:
            dst = int(key_fn(rec)) % n
            if destinations is not None:
                destinations.append(dst)
            yield dst, rec

    cluster.exchange(mapper, label=label)
    if destinations is None:
        return None
    return scatter_add(
        np.asarray(destinations, dtype=np.int64), minlength=n
    ).astype(np.int64)


def tree_broadcast(
    cluster: MPCCluster,
    payload: Any,
    *,
    tag: str = "bcast",
    label: str = "broadcast",
) -> int:
    """Deliver ``(tag, payload)`` to every machine; returns rounds used."""
    words = sizeof_words(payload) + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    rounds = 0
    # Seed the payload at the root without charging a round (the root
    # computes it locally).
    cluster.machines[0].store((tag, payload))

    # Level-by-level push until every machine holds the tagged record.
    have = {0}
    while len(have) < n:
        frontier = set(have)

        def mapper(mid: int, records: list[Any]):
            for rec in records:
                if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                    if mid in frontier:
                        for c in range(mid * f + 1, min(n, mid * f + f + 1)):
                            if c not in frontier:
                                yield c, rec
                yield mid, rec  # everything persists in place

        cluster.exchange(mapper, label=f"{label}/level")
        rounds += 1
        new_have = set(frontier)
        for parent in frontier:
            for c in range(parent * f + 1, min(n, parent * f + f + 1)):
                new_have.add(c)
        have = new_have
    return max(rounds, 1) if n > 1 else 0


def tree_reduce(
    cluster: MPCCluster,
    extract: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    zero: Any,
    *,
    tag: str = "reduce",
    label: str = "reduce",
) -> tuple[Any, int]:
    """Fold ``extract`` over all records up a tree to machine 0.

    Returns ``(total, rounds_used)``.  Partial aggregates travel as
    ``(tag, value)`` records; original records stay in place.  The
    columnar cluster folds caller-computed partials with
    :func:`repro.mpc.tree_reduce_vector` instead (same tree, same word
    charges).
    """
    if isinstance(cluster, ColumnarCluster):
        raise TypeError(
            "columnar clusters reduce with tree_reduce_vector(cluster, partials)"
        )
    words = sizeof_words(zero) + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    depth = tree_depth(n, f)
    # Each machine folds its local records once, host-side bookkeeping
    # tracks which machines still hold partials.
    level_of = {mid: _tree_level(mid, f) for mid in range(n)}
    max_level = max(level_of.values())
    rounds = 0

    def parent(mid: int) -> int:
        return (mid - 1) // f

    # Local fold: attach partials.
    for m in cluster.machines:
        acc = zero
        for rec in m.storage:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                continue
            val = extract(rec)
            if val is not None:
                acc = combine(acc, val)
        m.store((tag, acc))

    current_level = max_level
    while current_level > 0:
        lvl = current_level

        def mapper(mid: int, records: list[Any]):
            for rec in records:
                if (
                    isinstance(rec, tuple)
                    and len(rec) == 2
                    and rec[0] == tag
                    and level_of[mid] == lvl
                ):
                    yield parent(mid), rec
                else:
                    yield mid, rec

        cluster.exchange(mapper, label=f"{label}/level")
        rounds += 1
        # Parents merge partials locally (free within-round compute).
        for m in cluster.machines:
            partials = [r for r in m.storage if isinstance(r, tuple) and len(r) == 2 and r[0] == tag]
            if len(partials) > 1:
                acc = zero
                keep = [r for r in m.storage if not (isinstance(r, tuple) and len(r) == 2 and r[0] == tag)]
                for _, val in partials:
                    acc = combine(acc, val)
                m.clear()
                for r in keep:
                    m.store(r)
                m.store((tag, acc))
        current_level -= 1

    # Read the root's partial and strip reduce records everywhere.
    total = zero
    for m in cluster.machines:
        keep = []
        for rec in m.storage:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                if m.machine_id == 0:
                    total = combine(total, rec[1])
            else:
                keep.append(rec)
        m.clear()
        for rec in keep:
            m.store(rec)
    return total, max(rounds, 0)


def sample_sort(
    cluster: MPCCluster,
    key_fn: Callable[[Any], Any],
    *,
    oversample: int = 8,
    seed: int = 0,
    label: str = "sort",
) -> int:
    """Globally sort records by key; machine ``i`` ends with the ``i``-th
    contiguous key range, locally sorted.  Returns rounds used."""
    if not callable(key_fn):
        raise TypeError("object-substrate sample_sort needs a per-record key_fn")
    n = cluster.n_machines
    rng = random.Random(seed)
    sample_tag = "__sort_sample__"

    # Round 1: every machine sends a key sample to machine 0.
    def sample_mapper(mid: int, records: list[Any]):
        keys = [key_fn(rec) for rec in records]
        k = min(len(keys), max(1, oversample))
        sampled = rng.sample(keys, k) if keys else []
        for key in sampled:
            yield 0, (sample_tag, key)
        for rec in records:
            yield mid, rec

    cluster.exchange(sample_mapper, label=f"{label}/sample")

    # Machine 0 computes splitters locally.
    samples = sorted(
        rec[1]
        for rec in cluster.machines[0].storage
        if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == sample_tag
    )
    # Strip sample records.
    keep = [
        rec
        for rec in cluster.machines[0].storage
        if not (isinstance(rec, tuple) and len(rec) == 2 and rec[0] == sample_tag)
    ]
    cluster.machines[0].clear()
    for rec in keep:
        cluster.machines[0].store(rec)

    splitters = _pick_splitters(samples, n)

    bcast_rounds = tree_broadcast(cluster, tuple(splitters), tag="__splitters__", label=f"{label}/splitters")

    # Round 3: route records to their bucket.
    def route_mapper(mid: int, records: list[Any]):
        for rec in records:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == "__splitters__":
                continue  # drop control records
            bucket = bisect.bisect_right(splitters, key_fn(rec))
            yield min(bucket, n - 1), rec

    cluster.exchange(route_mapper, label=f"{label}/route")

    # Local sort (free compute).
    for m in cluster.machines:
        m.storage.sort(key=key_fn)
    # sample round + splitter broadcast + routing round
    return 2 + bcast_rounds


# ----------------------------------------------------------------------
# Graph exponentiation
# ----------------------------------------------------------------------
def collect_balls(
    cluster: MPCCluster,
    n_vertices: int,
    edge_list: list[tuple[int, int]],
    radius: int,
    *,
    owner_of_vertex=None,
) -> tuple[dict[int, tuple[tuple[int, int], ...]], int]:
    """Collect the radius-``radius`` ball of every vertex (two exchange
    rounds per doubling join); returns ``(balls, rounds_used)``."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    n_machines = cluster.n_machines
    owner = owner_of_vertex or (lambda v: v % n_machines)

    # Radius-1 balls from the raw edges (input loading, costs no rounds).
    incident: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for a, b in edge_list:
        incident[a].add((a, b))
        incident[b].add((a, b))
    records = [
        (BALL_TAG, v, tuple(sorted(incident.get(v, set()))))
        for v in range(n_vertices)
    ]
    cluster.load(records, by=lambda rec: owner(rec[1]))

    rounds_used = 0
    current_radius = 1
    while current_radius < radius:
        target = min(radius, 2 * current_radius)
        cur = current_radius

        # Exchange A: every center asks the owners of its frontier
        # vertices for their balls: request = (req, frontier_vertex,
        # center).  Balls persist in place.
        def request_mapper(mid: int, recs: list):
            for rec in recs:
                if rec[0] == BALL_TAG:
                    _, center, edges = rec
                    for w in _frontier(edges, center, cur):
                        if w != center:
                            yield owner(w), ("req", w, center)
                    yield mid, rec
                else:
                    yield mid, rec

        cluster.exchange(request_mapper, label="exponentiation/request")
        rounds_used += 1

        # Exchange B: owners answer with ("resp", center, edges);
        # requests are consumed.
        def response_mapper(mid: int, recs: list):
            local_balls = {rec[1]: rec[2] for rec in recs if rec[0] == BALL_TAG}
            for rec in recs:
                if rec[0] == BALL_TAG:
                    yield mid, rec
                elif rec[0] == "req":
                    _, w, center = rec
                    yield owner(center), ("resp", center, local_balls.get(w, ()))

        cluster.exchange(response_mapper, label="exponentiation/response")
        rounds_used += 1

        # Local merge: centers union the responses into their ball and
        # truncate to the target radius (free in-round computation).
        for m in cluster.machines:
            balls: dict[int, set[tuple[int, int]]] = {}
            extras: dict[int, list[tuple[tuple[int, int], ...]]] = defaultdict(list)
            for rec in m.storage:
                if rec[0] == BALL_TAG:
                    balls[rec[1]] = set(rec[2])
                elif rec[0] == "resp":
                    extras[rec[1]].append(rec[2])
            m.clear()
            for center, edges in balls.items():
                for extra in extras.get(center, []):
                    edges.update(extra)
                m.store((BALL_TAG, center, _truncate(edges, center, target)))
        current_radius = target

    out: dict[int, tuple[tuple[int, int], ...]] = {}
    for rec in cluster.all_records():
        if rec[0] == BALL_TAG:
            out[rec[1]] = rec[2]
    return out, rounds_used


# ----------------------------------------------------------------------
# Direct simulation of Algorithm 1 (three exchanges per LOCAL round)
# ----------------------------------------------------------------------
def simulate_local_rounds_on_cluster(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    epsilon: float,
    tau: int,
    *,
    alpha: float = 0.5,
    space_slack: float = 64.0,
    cluster: Optional[MPCCluster] = None,
) -> DirectSimulationResult:
    """Run τ exact Algorithm-1 rounds at 3 MPC rounds each."""
    caps = validate_capacities(graph, capacities)
    epsilon = check_fraction(epsilon, "epsilon")
    tau = check_positive_int(tau, "tau")
    log1p_eps = math.log1p(epsilon)

    if cluster is None:
        total_words = 8 * (graph.n_edges + graph.n_vertices) + 16
        cluster = cluster_for(
            total_words, n_for_alpha=max(2, graph.n_vertices), alpha=alpha,
            slack=space_slack, strict=True,
        )
    n_machines = cluster.n_machines

    # Resident state: edge records keyed by v, plus β/capacity records.
    records: list[tuple] = [
        ("edge", int(graph.edge_u[e]), int(graph.edge_v[e])) for e in range(graph.n_edges)
    ]
    records.extend(("beta", int(v), 0) for v in range(graph.n_right))
    records.extend(("cap", int(v), int(caps[v])) for v in range(graph.n_right))
    cluster.load(records, by=lambda rec: rec[2] % n_machines if rec[0] == "edge" else rec[1] % n_machines)

    def owner_right(v: int) -> int:
        return v % n_machines

    def owner_left(u: int) -> int:
        return u % n_machines

    alloc_final = np.zeros(graph.n_right, dtype=np.float64)
    for _ in range(tau):
        # Exchange 1 (join): β flows onto co-located edges; edge records
        # leave annotated with the current exponent, keyed by u.
        def join(mid: int, recs: list[Any]):
            beta_local = {rec[1]: rec[2] for rec in recs if rec[0] == "beta"}
            for rec in recs:
                kind = rec[0]
                if kind == "edge":
                    _, u, v = rec
                    yield owner_left(u), ("edge_b", u, v, beta_local[v])
                else:
                    yield mid, rec

        cluster.exchange(join, label="direct/join")

        # Exchange 2 (normalize): per left vertex, proportional split;
        # contributions return keyed by v.  Edges also return to their
        # home (v-keyed) machines for the next round.
        def normalize(mid: int, recs: list[Any]):
            by_left: dict[int, list[tuple[int, int]]] = {}
            for rec in recs:
                if rec[0] == "edge_b":
                    by_left.setdefault(rec[1], []).append((rec[2], rec[3]))
            for rec in recs:
                if rec[0] == "edge_b":
                    continue
                yield mid, rec
            for u, nbrs in by_left.items():
                max_exp = max(b for _, b in nbrs)
                weights = [(v, math.exp((b - max_exp) * log1p_eps)) for v, b in nbrs]
                denom = sum(w for _, w in weights)
                for v, w in weights:
                    yield owner_right(v), ("x", u, v, w / denom)

        cluster.exchange(normalize, label="direct/normalize")

        # Exchange 3 (aggregate): per right vertex, fold alloc and step
        # β; x records are consumed, edges are reconstituted at home.
        round_alloc: dict[int, float] = {}

        def aggregate(mid: int, recs: list[Any]):
            alloc: dict[int, float] = {}
            caps_local: dict[int, int] = {}
            beta_local: dict[int, int] = {}
            for rec in recs:
                if rec[0] == "x":
                    alloc[rec[2]] = alloc.get(rec[2], 0.0) + rec[3]
                elif rec[0] == "cap":
                    caps_local[rec[1]] = rec[2]
                elif rec[0] == "beta":
                    beta_local[rec[1]] = rec[2]
            for rec in recs:
                kind = rec[0]
                if kind == "x":
                    # Reconstitute the edge at its v-home machine.
                    yield mid, ("edge", rec[1], rec[2])
                elif kind == "beta":
                    v = rec[1]
                    a = alloc.get(v, 0.0)
                    round_alloc[v] = a
                    c = float(caps_local[v])
                    b = beta_local[v]
                    if a <= c / (1.0 + epsilon):
                        b += 1
                    elif a >= c * (1.0 + epsilon):
                        b -= 1
                    yield mid, ("beta", v, b)
                else:
                    yield mid, rec

        cluster.exchange(aggregate, label="direct/aggregate")
        alloc_final = np.zeros(graph.n_right, dtype=np.float64)
        for v, a in round_alloc.items():
            alloc_final[v] = a

    beta_exp = np.zeros(graph.n_right, dtype=np.int64)
    for rec in cluster.all_records():
        if rec[0] == "beta":
            beta_exp[rec[1]] = rec[2]
    return DirectSimulationResult(
        beta_exp=beta_exp,
        alloc=alloc_final,
        local_rounds=tau,
        mpc_rounds=cluster.rounds_executed,
        peak_machine_words=cluster.peak_machine_words(),
        violations=list(cluster.violations),
    )


# ----------------------------------------------------------------------
# The faithful driver's cluster steps
# ----------------------------------------------------------------------
def _faithful_phase(
    run: SampledRun,
    cluster: MPCCluster,
    rounds_in_phase: int,
    ledger: MPCRoundLedger,
) -> dict[str, Any]:
    """One phase's communication on the per-record cluster: the same
    grouping, exponentiation and write-back rounds, and the same load
    metrics, as :func:`repro.core.mpc_driver._faithful_phase`."""
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
    cluster.load([("sedge", int(a), int(b)) for a, b in pairs])
    hist = route_by_key(
        cluster, key_fn=lambda rec: rec[1], label="grouping",
        return_histogram=True,
    )
    ledger.record_routing(hist)
    note_skew(hist)
    ledger.charge("grouping", 1)
    ledger.charge("sampling", 1)  # the sample-announcement round

    # Graph exponentiation on the sampled graph (radius-2B balls).
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
    cluster.load([("beta", int(v), int(run.beta_exp[v])) for v in range(g.n_right)])
    hist = route_by_key(
        cluster, key_fn=lambda rec: rec[1], label="writeback",
        return_histogram=True,
    )
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
    run: SampledRun, cluster: MPCCluster, ledger: MPCRoundLedger
) -> CertificateStatus:
    """The O(1)-round termination test with per-record primitives:
    route (edge, is-top-endpoint) records by left vertex, then tree
    reduce (|N'|, |L₀|, Σ_{j≥1} alloc) to machine 0."""
    g = run.graph
    top = run.top_level_mask()
    bottom = run.bottom_level_mask()
    records: list[tuple] = [
        ("cedge", int(g.edge_u[e]), bool(top[g.edge_v[e]])) for e in range(g.n_edges)
    ]
    records.extend(
        ("cvert", int(v), bool(bottom[v]), float(run.alloc[v]))
        for v in range(g.n_right)
    )
    cluster.load(records)
    ledger.record_routing(
        route_by_key(
            cluster, key_fn=lambda rec: rec[1], label="certificate/route",
            return_histogram=True,
        )
    )
    ledger.charge("termination_test", 1)

    # Local dedup: covered left vertices per machine.
    def extract(rec):
        if rec[0] == "__covered__":
            return (rec[1], 0, 0.0)
        if rec[0] == "cvert":
            return (0, 1 if rec[2] else 0, 0.0 if rec[2] else rec[3])
        return None

    for m in cluster.machines:
        covered = {rec[1] for rec in m.storage if rec[0] == "cedge" and rec[2]}
        m.store(("__covered__", len(covered)))

    def combine(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    (n_prime, l0_size, upper_mass), reduce_rounds = tree_reduce(
        cluster, extract, combine, (0, 0, 0.0), label="certificate/reduce"
    )
    ledger.charge("termination_test", reduce_rounds)
    return CertificateStatus(
        rounds=run.rounds_completed,
        n_prime=int(n_prime),
        l0_size=int(l0_size),
        top_size=int(top.sum()),
        upper_mass=float(upper_mass),
        small_frontier=n_prime <= l0_size,
        mass_condition=upper_mass >= (1.0 - run.epsilon / 2.0) * n_prime,
        epsilon=run.epsilon,
    )


@contextmanager
def per_record_driver():
    """Inside the block, :func:`repro.core.mpc_driver.solve_allocation_mpc`
    runs its faithful mode on :class:`MPCCluster`: the driver's three
    cluster-facing names point at this module's versions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc_driver, "cluster_for", cluster_for)
        patch.setattr(mpc_driver, "_faithful_phase", _faithful_phase)
        patch.setattr(
            mpc_driver, "_faithful_certificate_test", _faithful_certificate_test
        )
        yield
