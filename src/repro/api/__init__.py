"""repro.api — the unified Engine façade (DESIGN.md §10).

One typed config and one result schema across every solve path:

* :class:`SolverConfig` — a frozen, validated configuration (ε,
  kernel backend, execution mode, seed policy, pipeline knobs) with a
  versioned JSON round trip; the only way to select a backend or a
  pipeline.
* :class:`Engine` — context-manager lifecycle over the config:
  ``solve`` (cold pipeline), ``solve_mpc`` (fractional Theorem 3),
  ``open_session`` (warm resident serving), ``open_dynamic``
  (delta-driven instances), ``batch`` / ``stream``.
* :class:`AllocationReport` — one result type wrapping
  :class:`~repro.core.pipeline.PipelineResult` /
  :class:`~repro.core.mpc_driver.MPCResult` with common accessors
  (allocation, certificate, stage records, round ledger) and a
  versioned ``to_json`` / ``from_json`` schema.

Kernel backends register in their own package
(:func:`repro.kernels.register_backend`); the config checks its names
against them.

Cold-path outputs are bit-identical to the historical entry points
(:func:`repro.core.pipeline.solve_allocation`,
:func:`repro.core.mpc_driver.solve_allocation_mpc`) on the same
config — asserted by ``tests/test_api.py`` and the CI
``api-stability`` job.
"""

from __future__ import annotations

from repro.api.config import CONFIG_SCHEMA, SolverConfig
from repro.api.engine import Engine, StreamResult
from repro.api.report import REPORT_SCHEMA, AllocationReport

__all__ = [
    "CONFIG_SCHEMA",
    "REPORT_SCHEMA",
    "SolverConfig",
    "Engine",
    "StreamResult",
    "AllocationReport",
]
