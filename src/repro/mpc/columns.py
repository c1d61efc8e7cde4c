"""Typed column batches: the record layout of the MPC cluster.

A :class:`ColumnBatch` holds records of one *kind* (the record's tag)
as a dict of fixed-width NumPy columns (one per record field), plus an
optional ragged payload (offsets + flat values, the CSR discipline)
for variable-length fields such as exponentiation balls.

Word accounting (DESIGN.md §7) is computed from dtypes and lengths —
no per-record traversal: each fixed column contributes
``max(1, itemsize // 8)`` words per record (a word holds an id or a
number, so sub-word scalars such as bools still occupy one word), the
kind tag contributes one word, and a ragged payload contributes its
per-record length in words.  So a batch prices exactly like the tuple
records ``(tag, field, …)`` it stands for, which is what the
per-record parity oracle in ``tests/mpc_reference.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = ["WORD_BYTES", "dtype_words", "ColumnBatch", "ragged_from_rows"]

WORD_BYTES = 8


def dtype_words(dtype) -> int:
    """Words per element of ``dtype``: ``max(1, itemsize // 8)``.

    int64/float64 are one word; narrow scalars (bool, int32) round up
    to one word, like the Python scalar they stand for.
    """
    return max(1, np.dtype(dtype).itemsize // WORD_BYTES)


@dataclass
class ColumnBatch:
    """A batch of same-kind records as columns.

    ``cols`` maps field name to a 1-D array (all equal length).  The
    optional ragged payload is ``(offsets, payload)`` with
    ``payload[offsets[i]:offsets[i+1]]`` the i-th record's
    variable-length words.  ``key`` optionally names the routing-key
    column consumed by :func:`repro.mpc.primitives.route_by_key`.
    """

    kind: str
    cols: Dict[str, np.ndarray] = field(default_factory=dict)
    offsets: Optional[np.ndarray] = None
    payload: Optional[np.ndarray] = None
    key: Optional[str] = None

    def __post_init__(self) -> None:
        lengths = {name: c.shape[0] for name, c in self.cols.items()}
        if (self.offsets is None) != (self.payload is None):
            raise ValueError("offsets and payload must be provided together")
        n = None
        if lengths:
            vals = set(lengths.values())
            if len(vals) != 1:
                raise ValueError(f"ragged column lengths in {self.kind!r}: {lengths}")
            n = vals.pop()
        if self.offsets is not None:
            n_off = self.offsets.shape[0] - 1
            if n is not None and n_off != n:
                raise ValueError(
                    f"offsets imply {n_off} records but columns hold {n}"
                )
            n = n_off
        if n is None:
            raise ValueError("a ColumnBatch needs at least one column or a payload")
        self._n = int(n)
        if self.key is not None and self.key not in self.cols:
            raise ValueError(f"key column {self.key!r} not in {sorted(self.cols)}")

    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return self._n

    def words_per_record(self) -> np.ndarray:
        """Per-record word cost from dtypes and payload lengths.

        ``1`` (kind tag) + one word per fixed column element (scaled by
        :func:`dtype_words`) + the payload length in words.
        """
        fixed = 1 + sum(dtype_words(c.dtype) for c in self.cols.values())
        out = np.full(self._n, fixed, dtype=np.int64)
        if self.offsets is not None:
            out += np.diff(self.offsets).astype(np.int64) * dtype_words(
                self.payload.dtype
            )
        return out

    def total_words(self) -> int:
        return int(self.words_per_record().sum())

    # ------------------------------------------------------------------
    def take(self, order: np.ndarray) -> "ColumnBatch":
        """Row-gather (duplicates allowed); ragged payload follows."""
        order = np.asarray(order, dtype=np.int64)
        cols = {name: c[order] for name, c in self.cols.items()}
        offsets = payload = None
        if self.offsets is not None:
            lengths = np.diff(self.offsets)[order]
            offsets = np.zeros(order.shape[0] + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            total = int(offsets[-1])
            if total:
                starts = self.offsets[:-1][order]
                idx = (
                    np.repeat(starts - offsets[:-1], lengths)
                    + np.arange(total, dtype=np.int64)
                )
                payload = self.payload[idx]
            else:
                payload = self.payload[:0]
        return ColumnBatch(self.kind, cols, offsets, payload, self.key)

    def select(self, mask: np.ndarray) -> "ColumnBatch":
        return self.take(np.flatnonzero(mask))

    def payload_row(self, i: int) -> np.ndarray:
        """The i-th record's ragged payload (empty array when absent)."""
        if self.offsets is None:
            return np.empty(0, dtype=np.int64)
        return self.payload[int(self.offsets[i]) : int(self.offsets[i + 1])]

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Row-concatenate same-schema batches (at least one)."""
        if not batches:
            raise ValueError("concat needs at least one batch")
        first = batches[0]
        if len(batches) == 1:
            return first
        for b in batches[1:]:
            if b.kind != first.kind or set(b.cols) != set(first.cols):
                raise ValueError(
                    f"schema mismatch concatenating kind {first.kind!r}"
                )
            if (b.offsets is None) != (first.offsets is None):
                raise ValueError("ragged/flat mismatch in concat")
        cols = {
            name: np.concatenate([b.cols[name] for b in batches])
            for name in first.cols
        }
        offsets = payload = None
        if first.offsets is not None:
            lengths = np.concatenate([np.diff(b.offsets) for b in batches])
            offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            payload = np.concatenate([b.payload for b in batches])
        return cls(first.kind, cols, offsets, payload, first.key)


def ragged_from_rows(rows: Iterable[Sequence], dtype=np.int64):
    """Build ``(offsets, payload)`` from an iterable of flat sequences."""
    lengths = []
    flat: list = []
    for row in rows:
        lengths.append(len(row))
        flat.extend(row)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
    return offsets, np.asarray(flat, dtype=dtype)
