"""Pluggable kernel backends and their registry.

A backend implements the segment primitives over raw CSR arrays.  The
contract every backend must honour (enforced by the parity tests):
**identical floating-point operations in identical order** — backends
may differ in how much they cache and reuse, never in the arithmetic.
That is what keeps β trajectories bit-identical across backends and
makes the optimized path a safe default.

Two tiers of that contract since the native backend (DESIGN.md §11):
the numpy backends (``reference``/``optimized``) are bit-identical to
each other, while the C ``native`` backend is bit-identical for
order-independent primitives (scatter, max, the exponentials) and
agrees to a few ulps wherever fusion folds row sums sequentially
instead of numpy's SIMD/pairwise order — the parity suite pins both
tiers.

Selection: ``repro.api.SolverConfig(backend=...)`` applied by an
:class:`repro.api.Engine`, or :func:`use_backend` for a scoped block.
The default is ``"optimized"``.  Backends can be *registered yet
unavailable* on a host (``native`` needs a C compiler):
:func:`backend_availability` reports the reason, and resolving an
unavailable backend raises it.

See DESIGN.md §6 and §11.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.kernels.workspace import SegmentLayout

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "OptimizedBackend",
    "AutoBackend",
    "register_backend",
    "available_backends",
    "backend_availability",
    "get_backend",
    "use_backend",
]

DEFAULT_BACKEND = "optimized"


class KernelBackend:
    """Base class: the reference NumPy implementations.

    Each primitive takes the raw ``indptr`` plus an optional
    :class:`SegmentLayout` carrying cached invariants; the reference
    implementations ignore the layout (recomputing everything per
    call, exactly like the historical per-module copies did).
    """

    name = "reference"

    # -- segment reductions --------------------------------------------
    def segment_sum(
        self,
        per_slot: np.ndarray,
        indptr: np.ndarray,
        *,
        layout: Optional[SegmentLayout] = None,
    ) -> np.ndarray:
        """Row sums of a CSR-aligned array; empty rows yield 0."""
        per_slot = np.asarray(per_slot)
        n = indptr.shape[0] - 1
        out = np.zeros(
            n,
            dtype=np.result_type(per_slot.dtype, np.float64)
            if per_slot.dtype.kind == "f"
            else per_slot.dtype,
        )
        if per_slot.shape[0] == 0 or n == 0:
            return out
        starts = indptr[:-1]
        nonempty = starts < indptr[1:]
        if not np.any(nonempty):
            return out
        out[nonempty] = np.add.reduceat(per_slot, starts[nonempty])
        return out

    def segment_max(
        self,
        per_slot: np.ndarray,
        indptr: np.ndarray,
        empty: float,
        *,
        layout: Optional[SegmentLayout] = None,
    ) -> np.ndarray:
        """Row maxima of a CSR-aligned array; empty rows yield ``empty``."""
        per_slot = np.asarray(per_slot)
        n = indptr.shape[0] - 1
        out = np.full(
            n, empty, dtype=per_slot.dtype if per_slot.dtype.kind == "f" else np.float64
        )
        if per_slot.shape[0] == 0 or n == 0:
            return out
        starts = indptr[:-1]
        nonempty = starts < indptr[1:]
        if not np.any(nonempty):
            return out
        out[nonempty] = np.maximum.reduceat(per_slot, starts[nonempty])
        return out

    # -- expansion / gather --------------------------------------------
    def expand_rows(
        self,
        per_row: np.ndarray,
        indptr: np.ndarray,
        *,
        layout: Optional[SegmentLayout] = None,
    ) -> np.ndarray:
        """Broadcast a per-row array to slots: ``repeat(per_row, deg)``."""
        return np.repeat(per_row, np.diff(indptr))

    def gather(
        self,
        values: np.ndarray,
        indices: np.ndarray,
        *,
        layout: Optional[SegmentLayout] = None,
    ) -> np.ndarray:
        """``values[indices]`` — per-slot gather of per-vertex state."""
        return values[indices]

    def gather_as_float(
        self,
        values: np.ndarray,
        indices: np.ndarray,
        *,
        row_buf: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Gather integer per-vertex state to slots as float64.

        Reference order: gather first, cast the (larger) slot array.
        The optimized backend casts the per-vertex array into a
        persistent ``row_buf`` first and gathers floats — identical
        values (int64→float64 is exact at these magnitudes), one cast
        of n instead of m elements, and no per-round cast allocation.
        """
        return values[indices].astype(np.float64)

    # -- the shared shifted-exponent softmax ---------------------------
    def segment_softmax_shifted(
        self,
        exp_slots: np.ndarray,
        indptr: np.ndarray,
        scale: float,
        *,
        layout: Optional[SegmentLayout] = None,
        mutate_input: bool = False,
    ) -> np.ndarray:
        """Normalized per-slot weights from per-slot integer exponents.

        Computes ``w = exp((e − rowmax(e))·scale)`` then ``w / rowsum(w)``
        within every CSR row.  Shifting by the row maximum keeps every
        weight in ``(0, 1]`` and every denominator in ``[1, deg]``, so
        no exponent magnitude can overflow (DESIGN.md §5).

        ``mutate_input=True`` tells the backend the caller owns
        ``exp_slots`` and it may be consumed as scratch (the optimized
        backend computes through it in place); the reference backend
        always copies.
        """
        e = np.asarray(exp_slots).astype(np.float64)
        seg_max = self.segment_max(e, indptr, 0.0, layout=layout)
        shifted = e - self.expand_rows(seg_max, indptr, layout=layout)
        w = np.exp(shifted * scale)
        denom = self.segment_sum(w, indptr, layout=layout)
        return w / self.expand_rows(denom, indptr, layout=layout)

    # -- scatter --------------------------------------------------------
    def scatter_add(
        self,
        index: np.ndarray,
        *,
        weights: Optional[np.ndarray] = None,
        minlength: int = 0,
    ) -> np.ndarray:
        """Scatter-add ``weights`` (1s when omitted) into bins.

        Equivalent to ``np.add.at(zeros(minlength), index, weights)``
        but via ``np.bincount``; with duplicates both accumulate in
        element order, so results are bit-identical.
        """
        return np.bincount(index, weights=weights, minlength=minlength)

    # -- the fused round hook -------------------------------------------
    def proportional_round(
        self,
        workspace,
        beta_exp: np.ndarray,
        scale: float,
        *,
        left_units: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One evaluation of the proportional-split round.

        The backend-level hook behind
        :func:`repro.kernels.rounds.proportional_round` (which carries
        the public contract).  The default implementation composes the
        four segment primitives — gather, shifted softmax, optional
        unit scaling, scatter — so the numpy backends stay
        operation-identical to the historical pipeline; the native
        backend overrides it with one fused C pass over the CSR
        arrays (DESIGN.md §11).
        """
        ws = workspace
        e_slot = self.gather_as_float(beta_exp, ws.left_adj, row_buf=ws.beta_f64)
        # The gather above hands us a fresh per-slot array, so the
        # softmax may compute through it in place.
        x = self.segment_softmax_shifted(
            e_slot, ws.left.indptr, scale, layout=ws.left, mutate_input=True
        )
        if left_units is not None:
            units_slot = self.gather(
                np.asarray(left_units, dtype=np.float64), ws.edge_u
            )
            np.multiply(x, units_slot, out=x)
        alloc = self.scatter_add(ws.left_adj, weights=x, minlength=ws.n_right)
        return x, alloc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceBackend(KernelBackend):
    """Alias of the base reference implementations."""

    name = "reference"


class OptimizedBackend(KernelBackend):
    """Cached-invariant backend (bit-identical values, fewer passes).

    With a :class:`SegmentLayout` the row expansion becomes a fancy
    gather through the cached ``slot_owner`` index (measurably faster
    than per-call ``np.repeat``; note ``np.take(..., out=)`` is a slow
    path in NumPy, so gathers deliberately produce fresh arrays),
    ``reduceat`` offsets come precomputed, and the softmax computes
    through its gathered input in place — three per-edge allocations
    per round instead of seven.  Without a layout every primitive
    falls back to the reference path, so the backend is always safe.
    """

    name = "optimized"

    def segment_sum(self, per_slot, indptr, *, layout=None):
        if layout is None or layout.indptr is not indptr:
            return super().segment_sum(per_slot, indptr, layout=None)
        per_slot = np.asarray(per_slot)
        out = np.zeros(
            layout.n_rows,
            dtype=np.result_type(per_slot.dtype, np.float64)
            if per_slot.dtype.kind == "f"
            else per_slot.dtype,
        )
        if per_slot.shape[0] == 0 or layout.n_rows == 0:
            return out
        starts = layout.reduce_starts
        if starts.shape[0] == 0:
            return out
        out[layout.nonempty] = np.add.reduceat(per_slot, starts)
        return out

    def segment_max(self, per_slot, indptr, empty, *, layout=None):
        if layout is None or layout.indptr is not indptr:
            return super().segment_max(per_slot, indptr, empty, layout=None)
        per_slot = np.asarray(per_slot)
        out = np.full(
            layout.n_rows,
            empty,
            dtype=per_slot.dtype if per_slot.dtype.kind == "f" else np.float64,
        )
        if per_slot.shape[0] == 0 or layout.n_rows == 0:
            return out
        starts = layout.reduce_starts
        if starts.shape[0] == 0:
            return out
        out[layout.nonempty] = np.maximum.reduceat(per_slot, starts)
        return out

    def expand_rows(self, per_row, indptr, *, layout=None):
        if layout is None or layout.indptr is not indptr:
            return super().expand_rows(per_row, indptr, layout=None)
        return per_row[layout.slot_owner]

    def gather_as_float(self, values, indices, *, row_buf=None):
        values = np.asarray(values)
        if row_buf is None or row_buf.shape != values.shape:
            return super().gather_as_float(values, indices, row_buf=None)
        # Cast n per-vertex values into the persistent buffer once,
        # then gather floats — exact (small-int) values, same as the
        # reference's gather-then-cast, minus a per-round m-sized cast.
        np.copyto(row_buf, values, casting="unsafe")
        return row_buf[indices]

    def segment_softmax_shifted(
        self, exp_slots, indptr, scale, *, layout=None, mutate_input=False
    ):
        e = np.asarray(exp_slots)
        if layout is None or layout.indptr is not indptr:
            return super().segment_softmax_shifted(
                e, indptr, scale, layout=None
            )
        if e.dtype != np.float64 or not mutate_input:
            e = e.astype(np.float64)
        if layout.n_slots == 0:
            return e
        owner = layout.slot_owner
        seg_max = self.segment_max(e, indptr, 0.0, layout=layout)
        np.subtract(e, seg_max[owner], out=e)
        np.multiply(e, scale, out=e)
        np.exp(e, out=e)
        denom = self.segment_sum(e, indptr, layout=layout)
        np.divide(e, denom[owner], out=e)
        return e


class AutoBackend(OptimizedBackend):
    """Size-dispatching backend: optimized below the native crossover,
    native above it.

    ``BENCH_kernels.json`` shows the native fused round *losing* to the
    optimized numpy path on small instances (0.8x at ~1.5k edges — the
    per-call ctypes overhead dominates) and winning decisively at scale
    (≥2.5x at 160k edges).  ``auto`` applies that measurement: the
    fused :meth:`proportional_round` delegates to the native backend
    once ``workspace.n_edges`` reaches :data:`AUTO_NATIVE_MIN_EDGES`,
    and otherwise — and for every unfused segment primitive — behaves
    exactly like ``optimized``.

    Degradation matches the registry contract (DESIGN.md §11): the
    native backend is probed lazily on the first large call; when it is
    unusable (no C compiler) ``auto`` stays on the optimized path for
    every size instead of raising, so it is always safe to select.
    """

    name = "auto"

    #: Edge-count crossover between the measured 0.8x (1558 edges) and
    #: 3.3x (15958 edges) native-vs-optimized points in
    #: BENCH_kernels.json.
    AUTO_NATIVE_MIN_EDGES = 4000

    def __init__(self, *, native_min_edges: Optional[int] = None):
        self.native_min_edges = (
            self.AUTO_NATIVE_MIN_EDGES if native_min_edges is None else int(native_min_edges)
        )
        self._native: Optional[KernelBackend] = None
        self._native_checked = False

    def _native_delegate(self) -> Optional[KernelBackend]:
        if not self._native_checked:
            self._native_checked = True
            try:
                from repro.kernels.native import NativeBackend, native_availability

                ok, _reason = native_availability()
                if ok:
                    self._native = NativeBackend()
            except Exception:
                self._native = None
        return self._native

    def proportional_round(self, workspace, beta_exp, scale, *, left_units=None):
        if workspace.n_edges >= self.native_min_edges:
            native = self._native_delegate()
            if native is not None:
                return native.proportional_round(
                    workspace, beta_exp, scale, left_units=left_units
                )
        return super().proportional_round(
            workspace, beta_exp, scale, left_units=left_units
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {}
_PROBES: Dict[str, Callable[[], "tuple[bool, Optional[str]]"]] = {}
_ACTIVE: Optional[KernelBackend] = None


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    availability: Optional[Callable[[], "tuple[bool, Optional[str]]"]] = None,
) -> None:
    """Register a backend factory under ``name`` (last write wins).

    ``availability`` optionally probes whether the backend can work on
    this host without instantiating it, returning ``(ok, reason)`` —
    the degradation contract for backends with system requirements
    (the native backend needs a C compiler, DESIGN.md §11).  Backends
    without a probe are assumed always available.
    """
    _FACTORIES[name] = factory
    if availability is not None:
        _PROBES[name] = availability
    else:
        _PROBES.pop(name, None)


def _native_factory() -> KernelBackend:
    # Lazy import: neither importing this module nor listing backends
    # compiles anything; the build happens at first resolution.
    from repro.kernels.native import NativeBackend

    return NativeBackend()


def _native_probe() -> "tuple[bool, Optional[str]]":
    from repro.kernels.native import native_availability

    return native_availability()


register_backend("reference", ReferenceBackend)
register_backend("optimized", OptimizedBackend)
register_backend("native", _native_factory, availability=_native_probe)
# No availability probe: auto degrades to the optimized path when the
# native half is unusable, so it is usable everywhere.
register_backend("auto", AutoBackend)


def available_backends(*, usable_only: bool = False) -> list[str]:
    """Registered backend names.

    ``usable_only=True`` drops backends whose availability probe fails
    on this host (e.g. ``"native"`` without a C compiler) — see
    :func:`backend_availability` for the reasons.
    """
    names = sorted(_FACTORIES)
    if usable_only:
        names = [n for n in names if backend_availability().get(n) is None]
    return names


def backend_availability(name: Optional[str] = None) -> Dict[str, Optional[str]]:
    """Availability of registered backends on this host.

    Maps each name to ``None`` when the backend is usable, or to a
    human-readable reason when it is registered but unavailable (the
    same message resolving it would raise).  Always-available numpy
    backends map to ``None`` unconditionally.

    Pass ``name`` to probe a single backend — probing can be costly
    (the native probe attempts a real build on compiler-equipped
    hosts), so callers validating one selection should not pay for
    the whole table.  Unknown names yield an empty dict.
    """
    names = sorted(_FACTORIES) if name is None else [n for n in (name,) if n in _FACTORIES]
    out: Dict[str, Optional[str]] = {}
    for name in names:
        probe = _PROBES.get(name)
        if probe is None:
            out[name] = None
            continue
        ok, reason = probe()
        out[name] = None if ok else (reason or "unavailable on this host")
    return out


def _resolve(name_or_backend: Union[str, KernelBackend]) -> KernelBackend:
    if isinstance(name_or_backend, KernelBackend):
        return name_or_backend
    try:
        factory = _FACTORIES[name_or_backend]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name_or_backend!r}; "
            f"available: {available_backends()}"
        ) from None
    return factory()


def get_backend() -> KernelBackend:
    """The active backend (``DEFAULT_BACKEND`` until one is installed)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(DEFAULT_BACKEND)
    return _ACTIVE


def _install_backend(name_or_backend: Union[str, KernelBackend]) -> KernelBackend:
    """Install a backend process-wide; returns the previous one (the
    :class:`repro.api.Engine` activation path and :func:`use_backend`
    route through here)."""
    global _ACTIVE
    previous = get_backend()
    _ACTIVE = _resolve(name_or_backend)
    return previous


@contextmanager
def use_backend(name_or_backend: Union[str, KernelBackend]):
    """Context manager: run a block under a specific backend.

    The active backend is **process-global, not thread-local**: do not
    switch backends while runs are stepping on other threads, or those
    runs would silently mix backends mid-trajectory.  (Safe with the
    built-in backends, which agree by contract, but not with a
    third-party backend that does not.)  Pick the backend before
    fanning out concurrent work.
    """
    previous = _install_backend(name_or_backend)
    try:
        yield get_backend()
    finally:
        _install_backend(previous)
