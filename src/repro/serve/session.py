"""Resident allocation sessions with warm-started solves (DESIGN.md §8).

The common serving shape is one resident graph answering many solve
requests — ε sweeps, capacity updates, reseeded roundings.  A cold
:func:`repro.core.pipeline.solve_allocation` call pays the full
pipeline every time; an :class:`AllocationSession` keeps everything
per-graph resident between requests:

* the cached :class:`~repro.kernels.RoundWorkspace` (slot-owner
  indices, reduceat offsets, scratch buffers),
* the per-graph structural invariants behind it, and
* the last converged β exponent vector, which warm-starts the next
  solve's proportional dynamics.

Warm starts are principled, not a heuristic: the integer-exponent
dynamics (Algorithm 1/3) converge from any starting vector and the
λ-free certificate (remark after Theorem 9) validates termination
regardless of the start, so after a small capacity or ε perturbation
the retained ``b`` is a near-fixed-point start and the certificate
fires within a phase or two instead of the full cold budget.  The
certificate is asserted on every warm solve, and the integral output
is re-checked for feasibility — a warm solve can be faster, never
less validated.

Every session solve and re-roll is a
:func:`~repro.core.pipeline.solve_allocation` call, so a cold solve
(``warm=False``) returns the same result, ``meta`` included, as that
call for the same seed — the session only changes *where* state lives,
never cold semantics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Literal, Mapping, Optional, Sequence

import numpy as np

from repro.core.pipeline import PipelineResult, solve_allocation
from repro.graphs.capacities import validate_integral_allocation
from repro.graphs.instances import AllocationInstance
from repro.kernels import workspace_for
from repro.utils.validation import check_fraction

__all__ = [
    "SolveRequest",
    "SessionStats",
    "AllocationSession",
    "check_integral_feasible",
]


@dataclass(frozen=True)
class SolveRequest:
    """One serving request against a resident session.

    Every field except ``seed``/``warm`` is an *override* of the
    session's defaults; ``None`` means "use the session default".
    ``capacities`` replaces the whole capacity vector;
    ``capacity_updates`` patches individual right vertices (the common
    capacity-update request) — both may not be combined.
    """

    epsilon: Optional[float] = None
    capacities: Optional[Any] = None
    capacity_updates: Optional[Mapping[int, int]] = None
    seed: Any = None
    warm: bool = True
    repair: Optional[bool] = None
    boost: Optional[bool] = None
    boost_epsilon: Optional[float] = None
    rounding_copies: Optional[int] = None
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.capacities is not None and self.capacity_updates is not None:
            raise ValueError("pass capacities or capacity_updates, not both")

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "SolveRequest":
        """Build a request from one decoded JSONL object.

        Unknown keys, wrong-typed scalars, out-of-range values
        (``seed`` < 0, ``rounding_copies`` < 1, a capacity < 1) and
        non-integer capacities are all rejected so malformed request
        files fail loudly instead of silently doing something different
        from what was written.  Only the vertex ids of
        ``capacity_updates`` wait for the solve, which knows the
        instance.
        """
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ValueError(
                f"unknown request fields {sorted(extra)}; known: {sorted(known)}"
            )
        kwargs = dict(obj)

        def _is_int(v: Any) -> bool:
            return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

        scalar_checks = {
            "epsilon": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
            "boost_epsilon": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
            "seed": (_is_int, "an integer"),
            "warm": (lambda v: isinstance(v, bool), "a boolean"),
            "repair": (lambda v: isinstance(v, bool), "a boolean"),
            "boost": (lambda v: isinstance(v, bool), "a boolean"),
            "rounding_copies": (_is_int, "an integer"),
            "tag": (lambda v: isinstance(v, str), "a string"),
        }
        for field_name, (check, expected) in scalar_checks.items():
            value = kwargs.get(field_name)
            if value is not None and not check(value):
                raise ValueError(
                    f"request field {field_name!r} must be {expected}, "
                    f"got {value!r}"
                )
        # Domain checks at parse time, so a bad value is reported with
        # its line number instead of failing mid-batch (same bounds the
        # solve itself applies).
        for field_name, low in (("seed", 0), ("rounding_copies", 1)):
            value = kwargs.get(field_name)
            if value is not None and value < low:
                raise ValueError(
                    f"request field {field_name!r} must be >= {low}, got {value!r}"
                )
        if kwargs.get("epsilon") is not None:
            check_fraction(kwargs["epsilon"], "epsilon", inclusive_high=0.25)
        if kwargs.get("boost_epsilon") is not None:
            check_fraction(kwargs["boost_epsilon"], "boost_epsilon")
        caps = kwargs.get("capacities")
        if caps is not None:
            if not isinstance(caps, Sequence) or isinstance(caps, (str, bytes)):
                raise ValueError(
                    f"capacities must be an array of integer capacities, "
                    f"got {type(caps).__name__}"
                )
            for i, v in enumerate(caps):
                if not _is_int(v):
                    raise ValueError(
                        f"capacities[{i}] must be an integer, got {v!r}"
                    )
                if v < 1:
                    raise ValueError(f"capacities[{i}] must be >= 1, got {v!r}")
        updates = kwargs.get("capacity_updates")
        if updates is not None:
            if not isinstance(updates, Mapping):
                raise ValueError(
                    "capacity_updates must be an object mapping vertex id "
                    f"to capacity, got {type(updates).__name__}"
                )
            cleaned: dict[int, int] = {}
            for k, v in updates.items():
                if not _is_int(v):
                    raise ValueError(
                        f"capacity_updates[{k!r}] must be an integer "
                        f"capacity, got {v!r}"
                    )
                if v < 1:
                    raise ValueError(
                        f"capacity_updates[{k!r}] must be >= 1, got {v!r}"
                    )
                cleaned[int(k)] = int(v)
            kwargs["capacity_updates"] = cleaned
        return cls(**kwargs)


@dataclass
class SessionStats:
    """Counters a serving layer would export."""

    solves: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    rounding_rerolls: int = 0
    local_rounds_total: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "solves": self.solves,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "rounding_rerolls": self.rounding_rerolls,
            "local_rounds_total": self.local_rounds_total,
        }


def check_integral_feasible(
    instance: AllocationInstance, edge_mask: np.ndarray
) -> None:
    """Raise ``ValueError`` if ``edge_mask`` is not a feasible integral
    allocation for ``instance`` (delegates to the shared Definition-5
    check in :mod:`repro.graphs.capacities`)."""
    validate_integral_allocation(instance.graph, instance.capacities, edge_mask)


class AllocationSession:
    """A resident solver instance for one graph (DESIGN.md §8).

    Construct once per served graph, then call :meth:`solve` per
    request.  Thread safety: the session may be *shared* with
    :func:`repro.serve.solve_batch`, which snapshots the warm state up
    front and commits once at the end; direct concurrent ``solve``
    calls on one session are serialized by the state lock only around
    snapshot/commit, so the heavy solve work runs in parallel.
    """

    def __init__(
        self,
        instance: AllocationInstance,
        *,
        epsilon: float = 0.2,
        repair: bool = True,
        boost: bool = True,
        boost_epsilon: Optional[float] = None,
        boost_mode: Literal["layered", "deterministic"] = "layered",
        rounding_copies: Optional[int] = None,
        lam: Optional[int] = None,
        alpha: float = 0.5,
        mpc_options: Optional[dict[str, Any]] = None,
    ):
        self.instance = instance
        self.epsilon = check_fraction(epsilon, "epsilon", inclusive_high=0.25)
        self.repair = repair
        self.boost = boost
        self.boost_epsilon = boost_epsilon
        self.boost_mode = boost_mode
        self.rounding_copies = rounding_copies
        self.lam = lam
        self.alpha = alpha
        self.mpc_options = dict(mpc_options or {})
        # Resident per-graph state: one cached workspace for every
        # stage of every request (structural invariants + scratch).
        self.workspace = workspace_for(instance.graph)
        self.stats = SessionStats()
        self._lock = threading.Lock()
        self._exponents: Optional[np.ndarray] = None
        self._last_result: Optional[PipelineResult] = None

    # -- warm state ----------------------------------------------------
    def exponents_snapshot(self) -> Optional[np.ndarray]:
        """Copy of the retained converged exponent vector (or ``None``
        before the first completed solve)."""
        with self._lock:
            return None if self._exponents is None else self._exponents.copy()

    def reset(self) -> None:
        """Drop the warm state; the next solve runs cold."""
        with self._lock:
            self._exponents = None
            self._last_result = None

    def prime_exponents(self, exponents: np.ndarray) -> None:
        """Install a retained β exponent vector directly, so the next
        ``warm=True`` solve starts from it.

        The dynamic layer's remap path (DESIGN.md §9): after an
        instance delta, the surviving servers' converged exponents are
        remapped onto the new instance and primed into the fresh
        session — no completed solve required.  The vector is validated
        against this session's graph; the usual warm-path certificate
        and feasibility assertions still gate every solve that uses it.
        """
        from repro.core.proportional import validate_initial_exponents

        base = validate_initial_exponents(self.instance.graph, exponents)
        assert base is not None
        with self._lock:
            self._exponents = base.copy()

    @property
    def last_result(self) -> Optional[PipelineResult]:
        with self._lock:
            return self._last_result

    def restore_state(
        self,
        exponents: Optional[np.ndarray],
        *,
        last_result: Optional[PipelineResult] = None,
        stats: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Install persisted warm state in one shot (the snapshot-restore
        path, DESIGN.md §14).

        Unlike :meth:`prime_exponents` this also reinstates the retained
        pipeline result (so :meth:`reroll_rounding` works across a
        restart) and the exported counters.  The exponent vector is
        validated against this session's graph; certificate
        re-verification is the restorer's job
        (:func:`repro.serve.snapshot.restore_session`), because only it
        knows whether a stale vector should fall back to cold.
        """
        from repro.core.proportional import validate_initial_exponents

        base = None
        if exponents is not None:
            base = validate_initial_exponents(self.instance.graph, exponents)
            assert base is not None
            base = base.copy()
        with self._lock:
            self._exponents = base
            self._last_result = last_result
            if stats is not None:
                for name in self.stats.as_dict():
                    if name in stats:
                        setattr(self.stats, name, int(stats[name]))

    def commit(self, result: PipelineResult) -> None:
        """Retain a solve's converged exponents as the next warm start.

        Counters are *not* updated here — :meth:`solve_detached` counts
        every executed request, while a batch commits only once per
        session (DESIGN.md §8.3).
        """
        if result.mpc.final_exponents is None:  # pragma: no cover - defensive
            return
        with self._lock:
            self._exponents = result.mpc.final_exponents.copy()
            self._last_result = result

    # -- request plumbing ----------------------------------------------
    def _normalize(self, request: Optional[SolveRequest], overrides: dict) -> SolveRequest:
        if request is None:
            request = SolveRequest()
        if overrides:
            request = replace(request, **overrides)
        return request

    def _request_instance(self, request: SolveRequest) -> AllocationInstance:
        if request.capacities is not None:
            return self.instance.with_capacities(
                np.asarray(request.capacities, dtype=np.int64)
            )
        if request.capacity_updates:
            n_right = self.instance.graph.n_right
            caps = self.instance.capacities.copy()
            for v, c in request.capacity_updates.items():
                v = int(v)
                if not 0 <= v < n_right:
                    raise ValueError(
                        f"capacity_updates vertex id {v} out of range "
                        f"[0, {n_right})"
                    )
                caps[v] = int(c)
            return self.instance.with_capacities(caps)
        return self.instance

    def solve_detached(
        self,
        request: Optional[SolveRequest] = None,
        *,
        initial_exponents: Optional[np.ndarray] = None,
        **overrides: Any,
    ) -> PipelineResult:
        """Solve one request from an explicit warm base without touching
        session state (the batch executor's building block).

        ``initial_exponents=None`` is a cold solve — the
        :func:`~repro.core.pipeline.solve_allocation` result for the
        same effective parameters and seed.
        """
        request = self._normalize(request, overrides)
        instance = self._request_instance(request)

        def knob(requested, default):
            return default if requested is None else requested

        result = solve_allocation(
            instance,
            knob(request.epsilon, self.epsilon),
            boost_epsilon=knob(request.boost_epsilon, self.boost_epsilon),
            lam=self.lam,
            alpha=self.alpha,
            repair=knob(request.repair, self.repair),
            boost=knob(request.boost, self.boost),
            boost_mode=self.boost_mode,
            rounding_copies=knob(request.rounding_copies, self.rounding_copies),
            mpc_options=self.mpc_options,
            seed=request.seed,
            workspace=self.workspace,
            initial_exponents=initial_exponents,
        )
        with self._lock:
            self.stats.solves += 1
            if initial_exponents is not None:
                self.stats.warm_solves += 1
            else:
                self.stats.cold_solves += 1
            self.stats.local_rounds_total += result.mpc.local_rounds
        if initial_exponents is not None:
            # The warm-path contract (DESIGN.md §8): the λ-free
            # certificate must have validated termination, and the
            # integral output must pass the same feasibility checks as
            # a cold solve.
            cert = result.mpc.certificate
            if cert is None or not cert.satisfied:  # pragma: no cover - driver raises first
                raise AssertionError("warm solve ended without a satisfied certificate")
            check_integral_feasible(instance, result.edge_mask)
        return result

    def solve(
        self, request: Optional[SolveRequest] = None, **overrides: Any
    ) -> PipelineResult:
        """Solve one request, warm-starting from the retained exponents
        (unless ``warm=False`` or no solve has completed yet), then
        retain the new converged exponents."""
        req = self._normalize(request, overrides)
        initial = self.exponents_snapshot() if req.warm else None
        result = self.solve_detached(req, initial_exponents=initial)
        self.commit(result)
        return result

    def reroll_rounding(
        self,
        *,
        seed: Any = None,
        copies: Optional[int] = None,
        repair: Optional[bool] = None,
        boost: Optional[bool] = None,
    ) -> PipelineResult:
        """Re-round the cached fractional solve under a fresh seed.

        The reseeded-rounding serving shape: stage composability lets
        the session re-run only rounding (and optionally repair/boost)
        against the last request's cached fractional allocation — no
        dynamics at all.  Runs on the last request's *solved* instance
        (capacity overrides included) with the last request's effective
        stage configuration (copies, repair/boost selection, boost ε),
        so the re-roll reproduces the solve it re-rounds except for the
        explicitly overridden knobs.  Requires a completed solve.
        """
        with self._lock:
            last = self._last_result
        if last is None:
            raise RuntimeError("no completed solve to re-roll; call solve() first")
        instance = last.instance if last.instance is not None else self.instance
        meta = last.meta
        result = solve_allocation(
            instance,
            meta.get("epsilon", self.epsilon),
            boost_epsilon=meta.get("boost_epsilon", self.boost_epsilon),
            repair=meta.get("repair", self.repair) if repair is None else repair,
            boost=meta.get("boost", self.boost) if boost is None else boost,
            boost_mode=self.boost_mode,
            rounding_copies=(
                meta.get("rounding_copies", self.rounding_copies)
                if copies is None
                else copies
            ),
            seed=seed,
            workspace=self.workspace,
            cached_fractional=last.mpc,
        )
        check_integral_feasible(instance, result.edge_mask)
        with self._lock:
            self.stats.rounding_rerolls += 1
        return result
