"""Unified kernel layer for the edge-parallel round primitives.

Every allocation algorithm in this repository (Algorithm 1/3, the
sampled Algorithm 2, the b-matching extension) spends its inner loop
in the same four segment primitives over a CSR side:

* ``segment_sum``  — row sums of a CSR-aligned per-slot array,
* ``segment_max``  — row maxima (with an explicit empty-row fill),
* ``segment_softmax_shifted`` — the shifted-exponent softmax that
  turns integer β exponents into normalized per-slot weights without
  overflow at any exponent magnitude (DESIGN.md §5/§6),
* ``scatter_add``  — the bincount scatter back to vertices.

This package isolates those primitives behind a backend registry
(:func:`register_backend` / :func:`get_backend`; select one with
``repro.api.SolverConfig(backend=...)`` or scope one with
:func:`use_backend`) with four built-in entries:

* ``"reference"`` — plain NumPy, operation-for-operation identical to
  the historical per-module implementations (per-round ``np.repeat``
  expansion, fresh temporaries);
* ``"optimized"`` — the default: identical floating-point operations
  in the identical order, but driven off cached per-graph invariants
  (slot-owner gather indices instead of ``np.repeat``, cached
  ``reduceat`` offsets, preallocated per-edge scratch buffers held in
  a :class:`RoundWorkspace`);
* ``"native"`` — a C implementation (compiled on demand with the
  system compiler, loaded via ctypes) that fuses the whole round into
  one pass over the CSR arrays (:mod:`repro.kernels.native`,
  DESIGN.md §11).  Registered everywhere but *available* only on
  hosts with a C compiler — :func:`backend_availability` reports the
  reason when it is not;
* ``"auto"`` — ``optimized`` below the measured ~4k-edge native
  crossover, ``native`` above it, and ``optimized`` everywhere on a
  host without a C compiler.

The two numpy backends perform the same FP operations in the same
order, so their trajectories are bit-identical — the parity tests in
``tests/test_kernel_backends.py`` assert this exactly.  The native
backend is bit-identical for order-independent primitives and agrees
to a documented tolerance wherever fusion folds row sums sequentially
(DESIGN.md §11 parity tiers).

See DESIGN.md §6 and §11 for the architecture.
"""

from __future__ import annotations

from repro.kernels.backends import (
    AutoBackend,
    KernelBackend,
    OptimizedBackend,
    ReferenceBackend,
    available_backends,
    backend_availability,
    get_backend,
    register_backend,
    use_backend,
)
from repro.kernels.rounds import proportional_round
from repro.kernels.workspace import (
    RoundWorkspace,
    SegmentLayout,
    resolve_workspace,
    transplant_workspace,
    workspace_for,
)

__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "OptimizedBackend",
    "AutoBackend",
    "available_backends",
    "backend_availability",
    "get_backend",
    "use_backend",
    "register_backend",
    "SegmentLayout",
    "RoundWorkspace",
    "workspace_for",
    "resolve_workspace",
    "transplant_workspace",
    "proportional_round",
    "segment_sum",
    "segment_max",
    "segment_softmax_shifted",
    "expand_rows",
    "scatter_add",
]


# ----------------------------------------------------------------------
# Module-level dispatchers: the convenience surface most consumers use.
# Each resolves the active backend at call time so a backend installed
# by an Engine or use_backend() affects all call sites uniformly.
# ----------------------------------------------------------------------
def segment_sum(per_slot, indptr, *, layout=None):
    """Row sums of a CSR-aligned array; empty rows yield 0."""
    return get_backend().segment_sum(per_slot, indptr, layout=layout)


def segment_max(per_slot, indptr, empty, *, layout=None):
    """Row maxima of a CSR-aligned array; empty rows yield ``empty``."""
    return get_backend().segment_max(per_slot, indptr, empty, layout=layout)


def segment_softmax_shifted(exp_slots, indptr, scale, *, layout=None):
    """Normalized per-slot weights ``exp((e - rowmax(e))·scale) / rowsum``."""
    return get_backend().segment_softmax_shifted(
        exp_slots, indptr, scale, layout=layout
    )


def expand_rows(per_row, indptr, *, layout=None):
    """Broadcast a per-row array to CSR slots (repeat / gather)."""
    return get_backend().expand_rows(per_row, indptr, layout=layout)


def scatter_add(index, *, weights=None, minlength=0):
    """Scatter-add ``weights`` (or 1s) into ``minlength`` bins."""
    return get_backend().scatter_add(index, weights=weights, minlength=minlength)
