"""The accounted MPC cluster: vectorized exchange with dtype accounting.

A :class:`ColumnarCluster` is a set of machines advancing in
synchronous rounds (§2.3).  Machine storage is a set of
cluster-global :class:`ColumnBatch` arrays plus a ``home`` (machine
id) column (DESIGN.md §7); one round is an explicit :class:`Shipment`
list whose traffic is priced with ``np.bincount`` over dtype-derived
word costs, delivered by a stable partition by destination, and
checked against the ``S`` words stored and sent per machine per
round.  :func:`cluster_for` sizes a cluster for the sublinear regime.

The substitution argument (DESIGN.md §4): round counts and space usage
are *model-level* quantities, so a simulator that enforces exactly the
model's constraints measures exactly the quantities Theorem 3 bounds.

Row-order contract (what makes numeric results reproducible from the
communication pattern alone): every kind's rows are kept
machine-major, and within a machine in arrival order.  An exchange
delivers each kind stable-sorted by destination, so a machine's new
rows appear in ``(source machine asc, emission order)``.  Sequential
NumPy accumulators (``bincount``) over rows in this order are the
left-folds a per-record machine would run, which is what the
per-record parity oracle in ``tests/mpc_reference.py`` checks bit for
bit (DESIGN.md §7.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.mpc.columns import ColumnBatch
from repro.utils.validation import check_positive_int

__all__ = [
    "SpaceViolation",
    "RoundLog",
    "storage_violation_msg",
    "traffic_violation_msg",
    "Shipment",
    "ColumnarCluster",
    "ColumnarMachineView",
    "cluster_for",
]


class SpaceViolation(RuntimeError):
    """A machine exceeded its word budget (storage or traffic)."""


@dataclass(frozen=True)
class RoundLog:
    """Traffic summary of one executed round."""

    round_index: int
    label: str
    total_words_moved: int
    max_sent: int
    max_received: int


def storage_violation_msg(machine_id: int, stored: int, capacity: int) -> str:
    """The storage-violation string a cluster records verbatim."""
    return f"machine {machine_id}: stored {stored} > {capacity}"


def traffic_violation_msg(machine_id: int, sent: int, capacity: int) -> str:
    """The traffic-violation string a cluster records verbatim."""
    return f"machine {machine_id}: sent {sent} > {capacity} in one round"


@dataclass
class Shipment:
    """Rows of one kind moving in one round: ``src[i] → dst[i]``.

    Rows with ``src == dst`` persist in place and move no data; all
    others are priced against both endpoints' per-round word budgets.
    """

    batch: ColumnBatch
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        n = self.batch.n_records
        if self.src.shape[0] != n or self.dst.shape[0] != n:
            raise ValueError(
                f"shipment of kind {self.batch.kind!r}: {n} records but "
                f"{self.src.shape[0]} sources / {self.dst.shape[0]} destinations"
            )


class ColumnarMachineView:
    """Read-only counters of one machine (words stored, sent and
    received this round, and their high-water marks)."""

    __slots__ = ("_cluster", "machine_id")

    def __init__(self, cluster: "ColumnarCluster", machine_id: int):
        self._cluster = cluster
        self.machine_id = machine_id

    @property
    def capacity_words(self) -> int:
        return self._cluster.words_per_machine

    @property
    def stored_words(self) -> int:
        return int(self._cluster._stored[self.machine_id])

    @property
    def peak_stored_words(self) -> int:
        return int(self._cluster._peak_stored[self.machine_id])

    @property
    def sent_words_this_round(self) -> int:
        return int(self._cluster._sent[self.machine_id])

    @property
    def received_words_this_round(self) -> int:
        return int(self._cluster._recv[self.machine_id])

    @property
    def peak_traffic_words(self) -> int:
        return int(self._cluster._peak_traffic[self.machine_id])


class ColumnarCluster:
    """Synchronous machines over column batches, word-accounted.

    The accounting surface is ``rounds_executed``, ``round_log``,
    ``violations`` and per-machine counters via :attr:`machines`; the
    data surface is :meth:`load_batches`, :meth:`exchange_columnar`,
    and the store accessors below.
    """

    def __init__(
        self,
        n_machines: int,
        words_per_machine: int,
        *,
        strict: bool = True,
    ):
        n_machines = check_positive_int(n_machines, "n_machines")
        words_per_machine = check_positive_int(words_per_machine, "words_per_machine")
        self._n_machines = n_machines
        self.words_per_machine = words_per_machine
        self.strict = strict
        self.rounds_executed = 0
        self.round_log: list[RoundLog] = []
        self.violations: list[str] = []
        self._store: dict[str, tuple[ColumnBatch, np.ndarray]] = {}
        self._stored = np.zeros(n_machines, dtype=np.int64)
        self._peak_stored = np.zeros(n_machines, dtype=np.int64)
        self._sent = np.zeros(n_machines, dtype=np.int64)
        self._recv = np.zeros(n_machines, dtype=np.int64)
        self._peak_traffic = np.zeros(n_machines, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_machines(self) -> int:
        return self._n_machines

    @property
    def machines(self) -> list[ColumnarMachineView]:
        return [ColumnarMachineView(self, i) for i in range(self._n_machines)]

    def total_stored_words(self) -> int:
        return int(self._stored.sum())

    def peak_global_words(self) -> int:
        return int(self._peak_stored.sum())

    def peak_machine_words(self) -> int:
        """Worst per-machine storage high-water mark (words)."""
        return int(self._peak_stored.max())

    # -- store accessors -----------------------------------------------
    def kinds(self) -> list[str]:
        return list(self._store)

    def has_kind(self, kind: str) -> bool:
        return kind in self._store

    def rows(self, kind: str) -> tuple[ColumnBatch, np.ndarray]:
        """The kind's cluster-global ``(batch, home)`` arrays."""
        return self._store[kind]

    def store_items(self) -> list[tuple[str, tuple[ColumnBatch, np.ndarray]]]:
        return list(self._store.items())

    def keep_all_shipments(self, *, exclude: Sequence[str] = ()) -> list[Shipment]:
        """Self-shipments persisting every resident kind (minus ``exclude``)."""
        return [
            Shipment(batch, home, home)
            for kind, (batch, home) in self._store.items()
            if kind not in exclude
        ]

    # ------------------------------------------------------------------
    def _sorted_by_home(
        self, batch: ColumnBatch, home: np.ndarray
    ) -> tuple[ColumnBatch, np.ndarray]:
        if batch.n_records <= 1 or bool(np.all(home[:-1] <= home[1:])):
            return batch, home
        order = np.argsort(home, kind="stable")
        return batch.take(order), home[order]

    def _recount_storage(self) -> None:
        stored = np.zeros(self._n_machines, dtype=np.int64)
        for batch, home in self._store.values():
            if batch.n_records:
                stored += np.bincount(
                    home, weights=batch.words_per_record(), minlength=self._n_machines
                ).astype(np.int64)
        self._stored = stored
        np.maximum(self._peak_stored, stored, out=self._peak_stored)

    def load_batches(
        self,
        batches: Sequence[ColumnBatch],
        *,
        home: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        """Place input batches (the model's arbitrary initial
        partition; costs no rounds).

        ``home=None`` round-robins the *concatenated* record sequence
        (``global index % M``); otherwise ``home`` provides one
        machine-id array per batch.
        """
        self._store = {}
        self._sent[:] = 0
        self._recv[:] = 0
        offset = 0
        for i, batch in enumerate(batches):
            n = batch.n_records
            if home is None:
                h = (offset + np.arange(n, dtype=np.int64)) % self._n_machines
            else:
                h = np.asarray(home[i], dtype=np.int64) % self._n_machines
            offset += n
            self._append_kind(batch, h)
        self._recount_storage()
        self._check_storage()

    def append_rows(self, batch: ColumnBatch, home: np.ndarray) -> None:
        """Host-side store of extra rows (no round, no budget check —
        checks run at the next exchange)."""
        self._append_kind(batch, np.asarray(home, dtype=np.int64))
        self._recount_storage()

    def _append_kind(self, batch: ColumnBatch, home: np.ndarray) -> None:
        batch, home = self._sorted_by_home(batch, home)
        if batch.kind in self._store:
            old, old_home = self._store[batch.kind]
            merged = ColumnBatch.concat([old, batch])
            merged_home = np.concatenate([old_home, home])
            # Stable: a machine's existing rows stay ahead of appends.
            self._store[batch.kind] = self._sorted_by_home(merged, merged_home)
        else:
            self._store[batch.kind] = (batch, home)

    def replace_kind(
        self, kind: str, batch: Optional[ColumnBatch], home: Optional[np.ndarray]
    ) -> None:
        """Host-side rewrite of one kind (a machine-local merge;
        ``batch=None`` drops the kind)."""
        self._store.pop(kind, None)
        if batch is not None and batch.n_records:
            self._store[kind] = self._sorted_by_home(
                batch, np.asarray(home, dtype=np.int64)
            )
        self._recount_storage()

    def drop_kind(self, kind: str) -> None:
        self.replace_kind(kind, None, None)

    # ------------------------------------------------------------------
    def exchange_columnar(
        self, shipments: Iterable[Shipment], *, label: str = "round"
    ) -> None:
        """Execute one synchronous round from an explicit shipment list.

        Storage is *replaced* by the delivered rows (map semantics —
        kinds not re-shipped are dropped, persistence is a self-
        shipment, see :meth:`keep_all_shipments`), traffic is priced
        per machine with ``bincount`` over word costs, and the storage
        and traffic budget checks run afterwards.
        """
        M = self._n_machines
        self._sent[:] = 0
        self._recv[:] = 0
        sent = np.zeros(M, dtype=np.float64)
        recv = np.zeros(M, dtype=np.float64)
        by_kind: dict[str, list[tuple[ColumnBatch, np.ndarray]]] = {}
        for sh in shipments:
            # Zero-record shipments still register their kind (an empty
            # kind persists as an empty batch, like an empty mapper).
            dst = np.asarray(sh.dst, dtype=np.int64)
            src = np.asarray(sh.src, dtype=np.int64)
            if dst.size and (dst.min() < 0 or dst.max() >= M):
                bad = int(dst[(dst < 0) | (dst >= M)][0])
                raise ValueError(f"destination machine {bad} out of range")
            words = sh.batch.words_per_record()
            cross = src != dst
            if np.any(cross):
                sent += np.bincount(src[cross], weights=words[cross], minlength=M)
                recv += np.bincount(dst[cross], weights=words[cross], minlength=M)
            by_kind.setdefault(sh.batch.kind, []).append((sh.batch, dst))
        self._store = {}
        for kind, parts in by_kind.items():
            batch = ColumnBatch.concat([b for b, _ in parts])
            dst = np.concatenate([d for _, d in parts])
            self._store[kind] = self._sorted_by_home(batch, dst)
        self._sent = sent.astype(np.int64)
        self._recv = recv.astype(np.int64)
        np.maximum(self._peak_traffic, self._sent, out=self._peak_traffic)
        np.maximum(self._peak_traffic, self._recv, out=self._peak_traffic)
        self._recount_storage()
        self.rounds_executed += 1
        self.round_log.append(
            RoundLog(
                round_index=self.rounds_executed,
                label=label,
                total_words_moved=int(self._sent.sum()),
                max_sent=int(self._sent.max()),
                max_received=int(self._recv.max()),
            )
        )
        self._check_traffic()
        self._check_storage()

    # ------------------------------------------------------------------
    def _check_storage(self) -> None:
        cap = self.words_per_machine
        for mid in np.flatnonzero(self._stored > cap):
            problems = [storage_violation_msg(int(mid), int(self._stored[mid]), cap)]
            self.violations.extend(problems)
            if self.strict:
                raise SpaceViolation("; ".join(problems))

    def _check_traffic(self) -> None:
        cap = self.words_per_machine
        for mid in np.flatnonzero(self._sent > cap):
            problems = [traffic_violation_msg(int(mid), int(self._sent[mid]), cap)]
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
) -> ColumnarCluster:
    """Build a cluster sized for the sublinear regime.

    ``S = slack · n^α`` words per machine (the constant ``slack``
    absorbs record framing, mirroring the O(·) in the theorem), and
    enough machines that the aggregate capacity is ``2×`` the input —
    the usual constant-factor headroom for shuffles.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    total_words = check_positive_int(total_words, "total_words")
    n_for_alpha = check_positive_int(n_for_alpha, "n_for_alpha")
    words = max(16, int(slack * n_for_alpha**alpha))
    n_machines = max(1, math.ceil(2.0 * total_words / words))
    return ColumnarCluster(n_machines, words, strict=strict)
