"""Standard MPC primitives, with explicit round costs.

The paper's §5 leans on "standard primitives such as graph
exponentiation and sorting, which are by now standard in the MPC
literature".  This module implements them on the accounted cluster:

* :func:`route_by_key` — hash-partition records; **1 round**.
* :func:`tree_broadcast` — send a small payload to every machine along
  a fan-out-``f`` tree; **⌈log_f M⌉ rounds** (``f`` derived from the
  word budget).
* :func:`tree_reduce_vector` — sum per-machine partial vectors to
  machine 0 up the same tree; **⌈log_f M⌉ rounds**.
* :func:`sample_sort` — TeraSort-style splitter sort; **3 rounds +
  one broadcast**.

Every primitive runs through the cluster's accounted exchange, so
space and traffic budgets are enforced and round counts accumulate in
the cluster's ledger — the numbers E5 compares against the theory.
Records are column batches (DESIGN.md §7), so keys are column names.
"""

from __future__ import annotations

import math
import random
from typing import Any, Optional

import numpy as np

from repro.kernels import scatter_add
from repro.mpc.columnar import ColumnarCluster, Shipment, SpaceViolation
from repro.mpc.columns import ColumnBatch

__all__ = [
    "fan_out",
    "tree_depth",
    "route_by_key",
    "tree_broadcast",
    "tree_reduce_vector",
    "sample_sort",
]


def fan_out(cluster, payload_words: int) -> int:
    """Largest tree fan-out the word budget allows: a machine relaying
    a ``payload_words`` message to ``f`` children sends ``f·payload``
    words, which must fit in ``S``.

    A payload that exceeds ``S`` outright cannot be shipped to even
    one child, so no fan-out is valid — that is a budget violation:
    on a strict cluster it raises :class:`SpaceViolation` (it used to
    be silently clamped to fan-out 2, deferring the failure to an
    opaque traffic check deep inside the tree walk); on a
    ``strict=False`` cluster it is recorded in ``cluster.violations``
    and the historical clamp applies, matching every other budget
    check.  The remaining clamp is documented: when ``S // payload ==
    1`` the returned minimum fan-out of 2 keeps the tree logarithmic,
    and the per-round traffic check still polices the actual sends of
    any parent with two children.
    """
    if payload_words < 1:
        raise ValueError("payload_words must be >= 1")
    if payload_words > cluster.words_per_machine:
        problem = (
            f"payload of {payload_words} words exceeds the per-machine budget "
            f"S={cluster.words_per_machine}: no tree fan-out can ship it"
        )
        if cluster.strict:
            raise SpaceViolation(problem)
        cluster.violations.append(problem)
    return max(2, cluster.words_per_machine // payload_words)


def tree_depth(n_machines: int, f: int) -> int:
    """Rounds for a fan-out-``f`` tree over ``n_machines`` machines."""
    if n_machines <= 1:
        return 1
    return max(1, math.ceil(math.log(n_machines) / math.log(f)))


# ----------------------------------------------------------------------
# route_by_key
# ----------------------------------------------------------------------
def route_by_key(
    cluster: ColumnarCluster,
    key_fn: Optional[str] = None,
    *,
    label: str = "route_by_key",
    return_histogram: bool = False,
) -> np.ndarray | None:
    """Move every record to machine ``key mod M`` (1 round).

    After this round all records sharing a key are co-located, which is
    the precondition for any per-key local computation (the MPC
    group-by).  With ``return_histogram=True`` the per-destination
    record histogram is additionally computed (via the shared
    :func:`repro.kernels.scatter_add` primitive) so callers can track
    routing skew — the MPC driver records its peak in the ledger.

    ``key_fn`` is the key column's name, or ``None`` to use each
    resident batch's declared ``key`` column.
    """
    if key_fn is not None and not isinstance(key_fn, str):
        raise TypeError(
            "route_by_key takes a column name (or None for each batch's "
            "declared key), not a per-record callable"
        )
    M = cluster.n_machines
    ships: list[Shipment] = []
    all_dst: list[np.ndarray] = []
    for kind, (batch, home) in cluster.store_items():
        col = key_fn if key_fn is not None else batch.key
        if col is None:
            raise ValueError(
                f"kind {kind!r} declares no routing key and none was passed"
            )
        dst = batch.cols[col].astype(np.int64) % M
        ships.append(Shipment(batch, home, dst))
        if return_histogram:
            all_dst.append(dst)
    cluster.exchange_columnar(ships, label=label)
    if not return_histogram:
        return None
    flat = (
        np.concatenate(all_dst) if all_dst else np.empty(0, dtype=np.int64)
    )
    return scatter_add(flat, minlength=M).astype(np.int64)


# ----------------------------------------------------------------------
# tree_broadcast
# ----------------------------------------------------------------------
def _broadcast_payload_array(payload: Any) -> np.ndarray:
    arr = np.asarray(payload, dtype=np.float64)
    if arr.ndim > 1:
        raise ValueError("broadcast payloads must be scalar or 1-D")
    return np.atleast_1d(arr)


def _payload_batch(tag: str, arr: np.ndarray, copies: int) -> ColumnBatch:
    offsets = np.arange(copies + 1, dtype=np.int64) * arr.size
    return ColumnBatch(tag, {}, offsets, np.tile(arr, copies))


def tree_broadcast(
    cluster: ColumnarCluster,
    payload: Any,
    *,
    tag: str = "bcast",
    label: str = "broadcast",
) -> int:
    """Deliver a ``tag`` record carrying ``payload`` to every machine;
    returns rounds used.

    Machine 0 is the root.  Children of machine ``i`` at fan-out ``f``
    are ``i·f+1 .. i·f+f`` — the standard implicit tree.  The payload
    (a scalar or 1-D numeric sequence) travels as a ragged column: its
    length in words plus one for the tag.
    """
    arr = _broadcast_payload_array(payload)
    words = arr.size + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    # Seed the payload at the root without charging a round (the root
    # computes it locally).
    cluster.append_rows(_payload_batch(tag, arr, 1), np.array([0], dtype=np.int64))

    rounds = 0
    have = {0}
    while len(have) < n:
        frontier = sorted(have)
        src_list: list[int] = []
        dst_list: list[int] = []
        for parent in frontier:  # ascending = source-major emission order
            for c in range(parent * f + 1, min(n, parent * f + f + 1)):
                if c not in have:
                    src_list.append(parent)
                    dst_list.append(c)
        ships = cluster.keep_all_shipments()
        if src_list:
            copies = _payload_batch(tag, arr, len(src_list))
            ships.append(
                Shipment(
                    copies,
                    np.asarray(src_list, dtype=np.int64),
                    np.asarray(dst_list, dtype=np.int64),
                )
            )
        cluster.exchange_columnar(ships, label=f"{label}/level")
        rounds += 1
        have.update(dst_list)
    return max(rounds, 1) if n > 1 else 0


# ----------------------------------------------------------------------
# tree_reduce_vector
# ----------------------------------------------------------------------
def tree_reduce_vector(
    cluster: ColumnarCluster,
    partials: np.ndarray,
    *,
    tag: str = "reduce",
    label: str = "reduce",
) -> tuple[np.ndarray, int]:
    """Tree reduce: elementwise-sum an ``(M, k)`` partial matrix (one
    row per machine, computed vectorized by the caller) up the implicit
    fan-out-``f`` tree to machine 0.

    Returns ``(total_vector, rounds_used)``.  Each partial travels as
    a ragged ``k``-word payload plus the tag word, and parents fold
    partials sequentially in (own, children ascending) order.
    """
    P = np.atleast_2d(np.asarray(partials, dtype=np.float64))
    M, k = P.shape
    if M != cluster.n_machines:
        raise ValueError(f"expected {cluster.n_machines} partial rows, got {M}")
    words = k + 1
    f = fan_out(cluster, words)
    level_of = np.array([_tree_level(mid, f) for mid in range(M)], dtype=np.int64)
    max_level = int(level_of.max()) if M else 0

    def partial_batch(mat: np.ndarray) -> ColumnBatch:
        offsets = np.arange(mat.shape[0] + 1, dtype=np.int64) * k
        return ColumnBatch(tag, {}, offsets, mat.reshape(-1).copy())

    # Local fold: every machine stores its partial (storage +k+1 words).
    cluster.append_rows(partial_batch(P), np.arange(M, dtype=np.int64))

    rounds = 0
    for lvl in range(max_level, 0, -1):
        batch, home = cluster.rows(tag)
        dst = home.copy()
        moving = level_of[home] == lvl
        dst[moving] = (home[moving] - 1) // f
        ships = cluster.keep_all_shipments(exclude=(tag,))
        ships.append(Shipment(batch, home, dst))
        cluster.exchange_columnar(ships, label=f"{label}/level")
        rounds += 1
        # Parents merge partials locally (free within-round compute).
        batch, home = cluster.rows(tag)
        if batch.n_records > M or len(np.unique(home)) < batch.n_records:
            mat = batch.payload.reshape(-1, k)
            merged_rows: list[np.ndarray] = []
            merged_home: list[int] = []
            i = 0
            n_rows = batch.n_records
            while i < n_rows:
                j = i
                while j < n_rows and home[j] == home[i]:
                    j += 1
                # Sequential fold in row order = (own, children asc).
                acc = mat[i]
                for r in range(i + 1, j):
                    acc = acc + mat[r]
                merged_rows.append(acc)
                merged_home.append(int(home[i]))
                i = j
            cluster.replace_kind(
                tag,
                partial_batch(np.asarray(merged_rows)),
                np.asarray(merged_home, dtype=np.int64),
            )

    batch, home = cluster.rows(tag)
    total = np.zeros(k, dtype=np.float64)
    for i in np.flatnonzero(home == 0):
        total = total + batch.payload.reshape(-1, k)[i]
    cluster.drop_kind(tag)
    return total, max(rounds, 0)


def _tree_level(mid: int, f: int) -> int:
    level = 0
    while mid > 0:
        mid = (mid - 1) // f
        level += 1
    return level


# ----------------------------------------------------------------------
# sample_sort
# ----------------------------------------------------------------------
def _pick_splitters(samples: list, n_machines: int) -> list:
    if not samples:
        return []
    step = max(1, len(samples) // n_machines)
    return samples[step::step][: n_machines - 1]


def sample_sort(
    cluster: ColumnarCluster,
    key_fn: Optional[str] = None,
    *,
    oversample: int = 8,
    seed: int = 0,
    label: str = "sort",
) -> int:
    """Globally sort records by key; machine ``i`` ends with the ``i``-th
    contiguous key range, locally sorted.  Returns rounds used.

    Three exchange rounds (sample collection, routing, settle) plus one
    splitter broadcast.  Splitters are chosen from per-machine samples
    gathered at machine 0 — the classical TeraSort scheme; samples are
    drawn from one seeded RNG in machine order.  ``key_fn`` is the key
    column's name, or ``None`` for the resident batch's declared key;
    exactly one data kind may be resident.
    """
    if key_fn is not None and not isinstance(key_fn, str):
        raise TypeError(
            "sample_sort takes a column name (or None for the resident "
            "batch's declared key), not a per-record callable"
        )
    data_kinds = [k for k in cluster.kinds() if not k.startswith("__")]
    if len(data_kinds) != 1:
        raise ValueError(
            f"sample_sort expects exactly one resident kind, found {data_kinds}"
        )
    kind = data_kinds[0]
    batch, home = cluster.rows(kind)
    col = key_fn if key_fn is not None else batch.key
    if col is None:
        raise ValueError(f"kind {kind!r} declares no key column and none was passed")
    n = cluster.n_machines
    rng = random.Random(seed)
    sample_tag = "__sort_sample__"

    # Round 1: per-machine samples to machine 0, drawn from the shared
    # RNG in machine order.
    keys = batch.cols[col]
    sampled_keys: list = []
    sample_src: list[int] = []
    for mid in range(n):
        kvals = keys[home == mid].tolist()
        k = min(len(kvals), max(1, oversample))
        sampled = rng.sample(kvals, k) if kvals else []
        sampled_keys.extend(sampled)
        sample_src.extend([mid] * len(sampled))
    ships = cluster.keep_all_shipments()
    if sampled_keys:
        ships.append(
            Shipment(
                ColumnBatch(sample_tag, {"key": np.asarray(sampled_keys)}),
                np.asarray(sample_src, dtype=np.int64),
                np.zeros(len(sampled_keys), dtype=np.int64),
            )
        )
    cluster.exchange_columnar(ships, label=f"{label}/sample")

    # Machine 0 computes splitters locally; sample records are stripped.
    samples = sorted(cluster.rows(sample_tag)[0].cols["key"].tolist()) if (
        cluster.has_kind(sample_tag)
    ) else []
    cluster.drop_kind(sample_tag)
    splitters = _pick_splitters(samples, n)

    bcast_rounds = tree_broadcast(
        cluster, tuple(splitters), tag="__splitters__", label=f"{label}/splitters"
    )

    # Round 3: route records to their bucket; control records dropped.
    batch, home = cluster.rows(kind)
    split_arr = np.asarray(splitters, dtype=np.float64)
    buckets = np.searchsorted(split_arr, batch.cols[col], side="right")
    dst = np.minimum(buckets, n - 1).astype(np.int64)
    cluster.exchange_columnar(
        [Shipment(batch, home, dst)], label=f"{label}/route"
    )

    # Local sort (free compute): stable by key within each machine.
    batch, home = cluster.rows(kind)
    if batch.n_records:
        order = np.lexsort(
            (np.arange(batch.n_records), batch.cols[col], home)
        )
        cluster.replace_kind(kind, batch.take(order), home[order])
    # sample round + splitter broadcast + routing round
    return 2 + bcast_rounds
