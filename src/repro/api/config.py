"""The one typed solver configuration (DESIGN.md §10).

:class:`SolverConfig` is the only way to select *how* to solve:
approximation target, kernel backend, execution mode, seed policy,
and the knobs of the paper's fixed pipeline.  It is a frozen
dataclass, validated eagerly against the registered backends, and
JSON round-trippable under a versioned schema so configurations travel
with results.

Every field has the historical default, so ``SolverConfig()`` behaves
exactly like the bare entry points — the cold-path parity tests in
``tests/test_api.py`` assert bit-identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from repro.kernels.backends import available_backends, backend_availability
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["CONFIG_SCHEMA", "SolverConfig"]

CONFIG_SCHEMA = "repro.api/SolverConfig/v3"

_MODES = ("simulate", "faithful")
_BUDGET_POLICIES = ("fixed", "adaptive")
_BOOST_MODES = ("layered", "deterministic")
_EXECUTORS = ("thread", "process")


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverConfig:
    """Frozen, validated solver configuration.

    Parameters
    ----------
    epsilon:
        The pipeline approximation parameter (ε ≤ 1/4, Theorem 17).
    backend:
        Kernel backend name (one of
        :func:`repro.kernels.available_backends`); ``None`` leaves the
        process-active backend untouched.
    mode:
        Fractional-solve validation mode: ``"simulate"`` (the scale
        path) or ``"faithful"`` (every communication step executed on
        an accounted cluster — DESIGN.md §5).
    mpc_budget_policy:
        Faithful-mode sample-budget policy: ``"fixed"`` (the
        historical static budget) or ``"adaptive"`` (the peak-hold
        throttling controller, DESIGN.md §13 — ramps the per-round
        budget while predicted peak machine words stay under
        ``mpc_safety_fraction·S`` and backs off before a
        ``SpaceViolation``).  Only meaningful with
        ``mode="faithful"``; rejected otherwise.
    mpc_safety_fraction:
        The adaptive controller's safety band as a fraction of the
        per-machine space budget S (default 0.8, range (0, 1]).
    seed:
        Default seed for calls that do not pass one (the seed policy:
        explicit per-call seeds always win).
    repair / boost / boost_epsilon / boost_mode / rounding_copies:
        The stage knobs, exactly as on
        :func:`repro.core.pipeline.solve_allocation`.
    lam / alpha:
        Arboricity bound (``None`` = λ-oblivious guessing) and the MPC
        space exponent.
    max_workers:
        Default thread-pool width for :meth:`repro.api.Engine.batch`.
    executor:
        Default batch executor: ``"thread"`` (in-process
        :func:`~repro.serve.solve_batch` pool — the historical shape)
        or ``"process"`` (the :class:`~repro.serve.ShardedExecutor`
        shard fleet, one worker process per shard, DESIGN.md §12).
    shard_workers:
        Default shard-process count for the ``"process"`` executor
        (``None`` = one shard per logical core).
    """

    epsilon: float = 0.2
    backend: Optional[str] = None
    mode: str = "simulate"
    mpc_budget_policy: str = "fixed"
    mpc_safety_fraction: float = 0.8
    seed: Optional[int] = None
    repair: bool = True
    boost: bool = True
    boost_epsilon: Optional[float] = None
    boost_mode: str = "layered"
    rounding_copies: Optional[int] = None
    lam: Optional[int] = None
    alpha: float = 0.5
    max_workers: Optional[int] = None
    executor: str = "thread"
    shard_workers: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "epsilon", check_fraction(self.epsilon, "epsilon", inclusive_high=0.25)
        )
        if self.backend is not None:
            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown kernel backend {self.backend!r}; "
                    f"available: {available_backends()}"
                )
            # Eager validation extends to host capability: a backend can
            # be registered yet unusable here (the native backend needs
            # a C compiler, DESIGN.md §11) — fail at config construction
            # with the actionable reason instead of at first solve.
            reason = backend_availability(self.backend).get(self.backend)
            if reason is not None:
                raise ValueError(
                    f"kernel backend {self.backend!r} is registered but "
                    f"unavailable on this host: {reason}"
                )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {list(_MODES)}, got {self.mode!r}")
        if self.mpc_budget_policy not in _BUDGET_POLICIES:
            raise ValueError(
                f"mpc_budget_policy must be one of {list(_BUDGET_POLICIES)}, "
                f"got {self.mpc_budget_policy!r}"
            )
        if self.mpc_budget_policy == "adaptive" and self.mode != "faithful":
            raise ValueError(
                "mpc_budget_policy='adaptive' requires mode='faithful' — "
                "the simulate path has no accounted cluster to throttle"
            )
        object.__setattr__(
            self,
            "mpc_safety_fraction",
            check_fraction(
                self.mpc_safety_fraction, "mpc_safety_fraction", inclusive_high=1.0
            ),
        )
        if self.boost_mode not in _BOOST_MODES:
            raise ValueError(
                f"boost_mode must be one of {list(_BOOST_MODES)}, "
                f"got {self.boost_mode!r}"
            )
        if self.seed is not None and not _is_int(self.seed):
            raise ValueError(f"seed must be an integer or None, got {self.seed!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.boost_epsilon is not None:
            object.__setattr__(
                self,
                "boost_epsilon",
                check_fraction(self.boost_epsilon, "boost_epsilon"),
            )
        if self.rounding_copies is not None:
            object.__setattr__(
                self,
                "rounding_copies",
                check_positive_int(self.rounding_copies, "rounding_copies"),
            )
        if self.lam is not None:
            object.__setattr__(self, "lam", check_positive_int(self.lam, "lam"))
        if not (0.0 < float(self.alpha) < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.max_workers is not None:
            object.__setattr__(
                self,
                "max_workers",
                check_positive_int(self.max_workers, "max_workers"),
            )
        if self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {list(_EXECUTORS)}, got {self.executor!r}"
            )
        if self.shard_workers is not None:
            object.__setattr__(
                self,
                "shard_workers",
                check_positive_int(self.shard_workers, "shard_workers"),
            )

    # -- derived views ---------------------------------------------------
    def replace(self, **overrides: Any) -> "SolverConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def mpc_options(self) -> dict[str, Any]:
        """Extra keywords for :func:`~repro.core.mpc_driver.solve_allocation_mpc`
        inside a pipeline's fractional stage — empty for the historical
        defaults."""
        options: dict[str, Any] = {}
        if self.mode != "simulate":
            options["mode"] = self.mode
        if self.mpc_budget_policy != "fixed":
            options["budget_policy"] = self.mpc_budget_policy
            options["safety_fraction"] = self.mpc_safety_fraction
        return options

    def session_kwargs(self) -> dict[str, Any]:
        """This config's pipeline knobs: the keywords of
        :func:`repro.core.pipeline.solve_allocation` (besides the
        instance, seed and warm state), and so the constructor keywords
        of :class:`repro.serve.AllocationSession` /
        :class:`repro.dynamic.DynamicSession`."""
        return {
            "epsilon": self.epsilon,
            "repair": self.repair,
            "boost": self.boost,
            "boost_epsilon": self.boost_epsilon,
            "boost_mode": self.boost_mode,
            "rounding_copies": self.rounding_copies,
            "lam": self.lam,
            "alpha": self.alpha,
            "mpc_options": self.mpc_options(),
        }

    # -- JSON round trip -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict under the versioned schema."""
        payload: dict[str, Any] = {"schema": CONFIG_SCHEMA}
        for f in dataclasses.fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolverConfig":
        """Inverse of :meth:`to_dict` (schema-checked, re-validated)."""
        schema = payload.get("schema")
        if schema != CONFIG_SCHEMA:
            raise ValueError(
                f"unsupported SolverConfig schema {schema!r}; "
                f"expected {CONFIG_SCHEMA!r}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known - {"schema"}
        if extra:
            raise ValueError(
                f"unknown SolverConfig fields {sorted(extra)}; known: {sorted(known)}"
            )
        return cls(**{k: v for k, v in payload.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        return cls.from_dict(json.loads(text))
