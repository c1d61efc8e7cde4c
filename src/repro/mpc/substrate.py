"""Pluggable MPC substrates and their registry (DESIGN.md §7).

A *substrate* is the record representation the accounted cluster runs
on.  Two are built in:

* ``"object"`` — the reference substrate: machines are Python lists of
  tuples, records are priced by recursive ``sizeof_words`` traversal,
  routing runs through per-record map callbacks
  (:class:`repro.mpc.cluster.MPCCluster`).
* ``"columnar"`` (default) — typed column batches, vectorized
  hash-partition routing, dtype-based word accounting
  (:class:`repro.mpc.columnar.ColumnarCluster`).

The contract, mirroring the kernel-backend contract (§6.3): both
substrates execute the **same communication pattern** and therefore
produce bit-identical round ledgers, budget violations, and numeric
trajectories — the parity suite asserts it.  Selection mirrors the
kernel backends: ``repro.api.SolverConfig(substrate=...)`` applied by
an :class:`repro.api.Engine`, or :func:`use_substrate` for a scoped
block.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict

from repro.mpc.cluster import MPCCluster
from repro.mpc.columnar import ColumnarCluster

__all__ = [
    "DEFAULT_SUBSTRATE",
    "register_substrate",
    "available_substrates",
    "get_substrate",
    "use_substrate",
    "make_cluster",
]

DEFAULT_SUBSTRATE = "columnar"

# A factory builds a cluster: factory(n_machines, words_per_machine, strict).
_FACTORIES: Dict[str, Callable[[int, int, bool], object]] = {}
_ACTIVE: str = DEFAULT_SUBSTRATE


def register_substrate(name: str, factory: Callable[[int, int, bool], object]) -> None:
    """Register a substrate factory under ``name`` (last write wins)."""
    _FACTORIES[name] = factory


register_substrate(
    "object", lambda n, words, strict: MPCCluster(n, words, strict=strict)
)
register_substrate(
    "columnar", lambda n, words, strict: ColumnarCluster(n, words, strict=strict)
)


def available_substrates() -> list[str]:
    """Registered substrate names."""
    return sorted(_FACTORIES)


def _validate(name: str) -> str:
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown MPC substrate {name!r}; available: {available_substrates()}"
        )
    return name


def get_substrate() -> str:
    """The active substrate name (``DEFAULT_SUBSTRATE`` until one is
    installed)."""
    return _ACTIVE


def _install_substrate(name: str) -> str:
    """Install a substrate process-wide; returns the previous one (the
    :class:`repro.api.Engine` activation path and :func:`use_substrate`
    route through here)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _validate(name)
    return previous


@contextmanager
def use_substrate(name: str):
    """Context manager: build clusters on a specific substrate.

    Process-global like the kernel-backend selection (same threading
    caveat): pick the substrate before fanning out concurrent cluster
    construction.
    """
    previous = _install_substrate(name)
    try:
        yield get_substrate()
    finally:
        _install_substrate(previous)


def make_cluster(
    n_machines: int,
    words_per_machine: int,
    *,
    strict: bool = True,
    substrate: str | None = None,
):
    """Build a cluster on ``substrate`` (``None`` → the active one)."""
    name = _validate(substrate) if substrate is not None else get_substrate()
    return _FACTORIES[name](n_machines, words_per_machine, strict)
