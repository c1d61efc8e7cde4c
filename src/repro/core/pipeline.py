"""The complete Theorem 1 / Theorem 3 pipeline as composable stages.

The paper's end-to-end algorithm composes three stages:

1. the MPC fractional algorithm (Theorem 3: `Õ(√log λ)` rounds,
   `(2+O(ε))` fractional, λ-oblivious),
2. §6 randomized rounding (Θ(1) integral, whp via parallel copies),
3. Appendix-B boosting (`(1+ε)` integral).

Each stage is a small object with one ``run(ctx)`` method producing a
:class:`StageRecord`, and :func:`run_pipeline` executes any stage
sequence over a shared :class:`PipelineContext`.  The paper's
composition is fixed, so one function assembles it:
:func:`solve_allocation` builds :func:`default_stages` from the knobs,
resolves the boost ε, and writes the result's ``meta``.  Every solve
path goes through it — :meth:`repro.api.Engine.solve`, session solves
and re-rolls (:mod:`repro.serve`, DESIGN.md §8) — so one solve gets
one report whichever path ran it.

Randomness contract: one call spawns exactly three streams — slot 0
drives the fractional solve, slot 1 drives rounding *and* the repair
pass (repair continues the stream rounding advanced, as the monolith
did), slot 2 drives boosting.  Slots are fixed per stage role, not per
stage position, so removing a stage never shifts another stage's
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Literal, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.boosting.boost import BoostResult, boost_allocation
from repro.core.fractional import FractionalAllocation
from repro.core.mpc_driver import MPCResult, solve_allocation_mpc
from repro.graphs.instances import AllocationInstance
from repro.kernels import (
    RoundWorkspace,
    resolve_workspace,
    transplant_workspace,
    workspace_for,
)
from repro.rounding.repair import greedy_fill
from repro.rounding.sampling import RoundingOutcome, round_best_of
from repro.utils.rng import spawn
from repro.utils.validation import check_fraction

__all__ = [
    "PipelineResult",
    "StageRecord",
    "PipelineContext",
    "PipelineStage",
    "FractionalStage",
    "RoundingStage",
    "RepairStage",
    "BoostStage",
    "default_stages",
    "run_pipeline",
    "solve_allocation",
    "solve_allocation_many",
]

# Fixed stream slots per stage *role* (see the module docstring).
N_STREAM_SLOTS = 3
FRACTIONAL_STREAM = 0
ROUNDING_STREAM = 1  # shared with repair: repair continues the stream
BOOST_STREAM = 2


@dataclass(frozen=True)
class StageRecord:
    """One stage's audit record — the shared protocol every stage emits.

    ``size`` is the integral allocation size after the stage (``None``
    for stages that only produce fractional state); ``detail`` carries
    the stage-specific columns a report would quote.
    """

    stage: str
    size: Optional[int]
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineContext:
    """Mutable state threaded through a stage sequence.

    Stages read what upstream stages produced and write their own
    outputs; :func:`run_pipeline` seeds the context and collects the
    audit records.
    """

    instance: AllocationInstance
    epsilon: float
    streams: list[Any]
    workspace: RoundWorkspace
    initial_exponents: Optional[np.ndarray] = None
    mpc: Optional[MPCResult] = None
    allocation: Optional[FractionalAllocation] = None
    rounding: Optional[RoundingOutcome] = None
    boosting: Optional[BoostResult] = None
    edge_mask: Optional[np.ndarray] = None
    repaired_size: Optional[int] = None
    records: list[StageRecord] = field(default_factory=list)

    def stream(self, slot: int):
        """The spawned RNG stream for a stage role slot."""
        return self.streams[slot]

    @property
    def size(self) -> int:
        if self.edge_mask is None:
            raise RuntimeError("no integral allocation produced yet")
        return int(self.edge_mask.sum())


@runtime_checkable
class PipelineStage(Protocol):
    """A composable pipeline stage: reads/writes the context, returns
    its audit record."""

    name: str

    def run(self, ctx: PipelineContext) -> StageRecord: ...


@dataclass(frozen=True)
class FractionalStage:
    """Stage 1 — the Theorem-3 MPC fractional solve.

    Consumes stream slot 0 and the context's ``initial_exponents``
    (the session warm-start path, DESIGN.md §8).  ``options`` forwards
    extra keyword arguments to :func:`solve_allocation_mpc` (mode,
    sample budget, budget policy, …).
    """

    alpha: float = 0.5
    lam: Optional[int] = None
    options: dict[str, Any] = field(default_factory=dict)
    name: str = "fractional"

    def run(self, ctx: PipelineContext) -> StageRecord:
        mpc = solve_allocation_mpc(
            ctx.instance,
            ctx.epsilon,
            alpha=self.alpha,
            lam=self.lam,
            seed=ctx.stream(FRACTIONAL_STREAM),
            workspace=ctx.workspace,
            initial_exponents=ctx.initial_exponents,
            **self.options,
        )
        ctx.mpc = mpc
        ctx.allocation = mpc.allocation
        return StageRecord(
            stage=self.name,
            size=None,
            detail={
                "mpc_rounds": mpc.mpc_rounds,
                "local_rounds": mpc.local_rounds,
                "fractional_weight": mpc.match_weight,
                "warm_start": bool(mpc.meta.get("warm_start")),
            },
        )


@dataclass(frozen=True)
class RoundingStage:
    """Stage 2 — §6 randomized rounding, best of ``copies`` re-rolls.

    Consumes stream slot 1.  Requires a fractional allocation on the
    context (from :class:`FractionalStage` or injected by a serving
    caller re-rolling the rounding of a cached fractional solve).
    """

    copies: Optional[int] = None
    name: str = "rounding"

    def run(self, ctx: PipelineContext) -> StageRecord:
        if ctx.allocation is None:
            raise RuntimeError("rounding stage needs a fractional allocation")
        rounded = round_best_of(
            ctx.instance.graph,
            ctx.instance.capacities,
            ctx.allocation,
            copies=self.copies,
            seed=ctx.stream(ROUNDING_STREAM),
        )
        ctx.rounding = rounded
        ctx.edge_mask = rounded.edge_mask
        ctx.repaired_size = rounded.size  # baseline until a repair stage runs
        return StageRecord(stage=self.name, size=rounded.size, detail={})


@dataclass(frozen=True)
class RepairStage:
    """Greedy maximality repair between rounding and boosting.

    Runs :func:`~repro.rounding.repair.greedy_fill`, the random-order
    greedy scan computed in rounds (DESIGN.md §2.6), on rounding's
    stream (slot 1), which it continues exactly as the monolith did;
    monotonicity (repair can only grow the allocation) is asserted.
    The record's detail holds ``added`` (edges the pass added),
    ``rounds`` and ``live_edges`` (the live-edge count at the start of
    each round).
    """

    name: str = "repair"

    def run(self, ctx: PipelineContext) -> StageRecord:
        if ctx.edge_mask is None or ctx.rounding is None:
            raise RuntimeError("repair stage needs a rounded allocation")
        before = ctx.size
        live_edges: list[int] = []
        mask = greedy_fill(
            ctx.instance.graph,
            ctx.instance.capacities,
            ctx.edge_mask,
            seed=ctx.stream(ROUNDING_STREAM),
            live_edges=live_edges,
        )
        repaired_size = int(mask.sum())
        assert repaired_size >= before
        ctx.edge_mask = mask
        ctx.repaired_size = repaired_size
        return StageRecord(
            stage=self.name,
            size=repaired_size,
            detail={
                "added": repaired_size - before,
                "rounds": len(live_edges),
                "live_edges": live_edges,
            },
        )


def _boost_epsilon(boost_epsilon: Optional[float], epsilon: float) -> float:
    """The boosting target: ``boost_epsilon`` if given, else
    ``max(pipeline ε, 0.25)`` (the boosting k grows as 1/ε, so very
    small ε targets are expensive)."""
    return boost_epsilon if boost_epsilon is not None else max(epsilon, 0.25)


@dataclass(frozen=True)
class BoostStage:
    """Stage 3 — Appendix-B boosting towards (1+ε).

    Consumes stream slot 2.  ``epsilon=None`` boosts towards
    ``max(pipeline ε, 0.25)``.
    """

    epsilon: Optional[float] = None
    mode: Literal["layered", "deterministic"] = "layered"
    name: str = "boost"

    def run(self, ctx: PipelineContext) -> StageRecord:
        if ctx.edge_mask is None:
            raise RuntimeError("boost stage needs an integral allocation")
        before = ctx.repaired_size if ctx.repaired_size is not None else ctx.size
        boosting = boost_allocation(
            ctx.instance,
            ctx.edge_mask,
            _boost_epsilon(self.epsilon, ctx.epsilon),
            mode=self.mode,
            seed=ctx.stream(BOOST_STREAM),
        )
        assert boosting.final_size >= before
        ctx.boosting = boosting
        ctx.edge_mask = boosting.edge_mask
        return StageRecord(
            stage=self.name,
            size=boosting.final_size,
            detail={"augmentations": boosting.augmentations, "k": boosting.k},
        )


def default_stages(
    *,
    repair: bool = True,
    boost: bool = True,
    boost_epsilon: Optional[float] = None,
    boost_mode: Literal["layered", "deterministic"] = "layered",
    lam: Optional[int] = None,
    alpha: float = 0.5,
    rounding_copies: Optional[int] = None,
    mpc_options: Optional[dict[str, Any]] = None,
) -> tuple[PipelineStage, ...]:
    """The paper's pipeline as a stage tuple: fractional → rounding →
    [repair] → [boost]."""
    stages: list[PipelineStage] = [
        FractionalStage(alpha=alpha, lam=lam, options=dict(mpc_options or {})),
        RoundingStage(copies=rounding_copies),
    ]
    if repair:
        stages.append(RepairStage())
    if boost:
        stages.append(BoostStage(epsilon=boost_epsilon, mode=boost_mode))
    return tuple(stages)


@dataclass(frozen=True)
class PipelineResult:
    """Final integral allocation with per-stage audit records."""

    edge_mask: np.ndarray
    size: int
    mpc: MPCResult
    rounding: RoundingOutcome
    boosting: Optional[BoostResult]
    repaired_size: int
    meta: dict[str, Any] = field(default_factory=dict)
    stage_records: tuple[StageRecord, ...] = ()
    # The instance actually solved (capacity overrides applied) — what
    # a serving re-roll must round against.  Typed field, not a meta
    # entry, so meta stays plain JSON-serializable scalars.
    instance: Optional[AllocationInstance] = None

    def summary(self) -> dict[str, Any]:
        """One row of the numbers a report would quote."""
        return {
            "mpc_rounds": self.mpc.mpc_rounds,
            "local_rounds": self.mpc.local_rounds,
            "fractional_weight": round(self.mpc.match_weight, 3),
            "rounded_size": self.rounding.size,
            "repaired_size": self.repaired_size,
            "final_size": self.size,
            "boost_augmentations": None if self.boosting is None else self.boosting.augmentations,
        }


def run_pipeline(
    instance: AllocationInstance,
    stages: Sequence[PipelineStage],
    epsilon: float = 0.2,
    *,
    seed=None,
    workspace: Optional[RoundWorkspace] = None,
    initial_exponents: Optional[np.ndarray] = None,
    cached_fractional: Optional[MPCResult] = None,
    meta: Optional[dict[str, Any]] = None,
) -> PipelineResult:
    """Execute a stage sequence on one instance.

    Spawns the fixed three-slot stream set (module docstring), runs the
    stages in order, and packages the context into a
    :class:`PipelineResult`.  The sequence must produce an integral
    allocation (contain a rounding stage); fractional-only flows use
    :func:`solve_allocation_mpc` directly.

    ``cached_fractional`` seeds the context with an already-computed
    fractional solve instead of running a :class:`FractionalStage` —
    the reseeded-rounding serving shape
    (:meth:`repro.serve.AllocationSession.reroll_rounding`): the stage
    list then starts at rounding, and the cached solve appears in the
    audit trail as a ``fractional(cached)`` record.
    """
    epsilon = check_fraction(epsilon, "epsilon", inclusive_high=0.25)
    ctx = PipelineContext(
        instance=instance,
        epsilon=epsilon,
        streams=spawn(seed, N_STREAM_SLOTS),
        workspace=resolve_workspace(instance.graph, workspace),
        initial_exponents=initial_exponents,
    )
    stage_names = [s.name for s in stages]
    if cached_fractional is not None:
        if any(isinstance(s, FractionalStage) for s in stages):
            raise ValueError(
                "cached_fractional replaces the fractional stage; the stage "
                "list must start at rounding"
            )
        ctx.mpc = cached_fractional
        ctx.allocation = cached_fractional.allocation
        ctx.records.append(
            StageRecord(stage="fractional(cached)", size=None, detail={"cached": True})
        )
        stage_names = ["fractional(cached)"] + stage_names
    for stage in stages:
        ctx.records.append(stage.run(ctx))
    if ctx.edge_mask is None or ctx.mpc is None or ctx.rounding is None:
        raise RuntimeError(
            "pipeline did not produce an integral allocation: stage list "
            f"{[s.name for s in stages]} needs a fractional and a rounding stage"
        )
    result_meta = {"epsilon": epsilon, "stages": stage_names}
    if meta:
        result_meta.update(meta)
    return PipelineResult(
        edge_mask=ctx.edge_mask,
        size=ctx.size,
        mpc=ctx.mpc,
        rounding=ctx.rounding,
        boosting=ctx.boosting,
        repaired_size=int(ctx.repaired_size if ctx.repaired_size is not None else ctx.size),
        meta=result_meta,
        stage_records=tuple(ctx.records),
        instance=instance,
    )


def solve_allocation(
    instance: AllocationInstance,
    epsilon: float = 0.2,
    *,
    boost_epsilon: Optional[float] = None,
    lam: Optional[int] = None,
    alpha: float = 0.5,
    repair: bool = True,
    boost: bool = True,
    boost_mode: Literal["layered", "deterministic"] = "layered",
    rounding_copies: Optional[int] = None,
    mpc_options: Optional[dict[str, Any]] = None,
    seed=None,
    workspace: Optional[RoundWorkspace] = None,
    initial_exponents: Optional[np.ndarray] = None,
    cached_fractional: Optional[MPCResult] = None,
) -> PipelineResult:
    """Run the full paper pipeline on one instance.

    The one assembler of the paper's pipeline (module docstring):
    :func:`run_pipeline` over :func:`default_stages`, with the flags
    selecting stages.  ``boost_epsilon`` defaults to
    ``max(epsilon, 0.25)``; the resolved value, the stage flags,
    ``rounding_copies`` and whether the solve was warm-started are
    recorded in ``meta``.  Stages after the MPC solve are monotone:
    each can only grow the allocation (asserted).

    ``rounding_copies`` overrides the number of §6 rounding copies
    (default O(log n)); ``mpc_options`` forwards extra keywords to
    :func:`solve_allocation_mpc` (mode, budget policy).
    ``workspace`` lets batched callers reuse the per-graph kernel
    workspace (see :func:`solve_allocation_many`);
    ``initial_exponents`` warm-starts the fractional dynamics (the
    :class:`repro.serve.AllocationSession` path, DESIGN.md §8).
    ``cached_fractional`` re-rounds an earlier fractional solve
    instead of running one (the session's re-roll), and marks
    ``meta["rounding_reroll"]``.
    """
    epsilon = check_fraction(epsilon, "epsilon", inclusive_high=0.25)
    boost_epsilon = _boost_epsilon(boost_epsilon, epsilon)
    stages = default_stages(
        repair=repair,
        boost=boost,
        boost_epsilon=boost_epsilon,
        boost_mode=boost_mode,
        lam=lam,
        alpha=alpha,
        rounding_copies=rounding_copies,
        mpc_options=mpc_options,
    )
    meta: dict[str, Any] = {
        "boost_epsilon": boost_epsilon,
        "repair": repair,
        "boost": boost,
        "rounding_copies": rounding_copies,
        "warm_start": initial_exponents is not None,
    }
    if cached_fractional is not None:
        stages = stages[1:]  # the cached solve replaces the fractional stage
        meta["rounding_reroll"] = True
    return run_pipeline(
        instance,
        stages,
        epsilon,
        seed=seed,
        workspace=workspace,
        initial_exponents=initial_exponents,
        cached_fractional=cached_fractional,
        meta=meta,
    )


def solve_allocation_many(
    instances: Sequence[AllocationInstance],
    epsilon: float = 0.2,
    *,
    seed=None,
    **kwargs: Any,
) -> list[PipelineResult]:
    """Run the full pipeline over a batch of instances.

    The first step toward the heavy-traffic serving story (ROADMAP):
    one call amortizes per-graph setup across the batch.  Each
    instance's :class:`~repro.kernels.RoundWorkspace` is resolved once
    up front and handed to every stage, and workspaces are shared at
    two levels:

    * instances sharing a graph *object* (one graph, many capacity or
      parameter variations) share the graph's cached workspace as
      before;
    * instances whose graphs are **equal but distinct objects** — the
      real serving shape, where every request deserializes its own
      copy of the same graph — adopt the structure of an earlier batch
      member via :func:`~repro.kernels.transplant_workspace`, so
      cached slot-owner indices and ``reduceat`` offsets are built
      once per distinct CSR structure rather than once per instance.

    Seeds are spawned per batch *position* from ``seed``: results are
    reproducible for a fixed ordering (entry ``i`` equals a single
    :func:`solve_allocation` call with ``spawn(seed, n)[i]``), but
    permuting the batch permutes the streams.  Extra keyword arguments
    are forwarded to :func:`solve_allocation`.

    For the resident one-graph/many-requests shape with warm starts
    and thread parallelism, see :mod:`repro.serve` (DESIGN.md §8).
    """
    if "workspace" in kwargs:
        raise TypeError(
            "solve_allocation_many resolves one workspace per instance "
            "graph itself; do not pass workspace="
        )
    instances = list(instances)
    streams = spawn(seed, len(instances))
    # First workspace seen per cheap structural signature; candidates
    # for layout adoption by later equal-but-distinct graphs.  The
    # signature only gates the attempt — transplant_workspace verifies
    # actual indptr equality per side before adopting anything.
    seen: dict[tuple[int, int, int], RoundWorkspace] = {}
    results: list[PipelineResult] = []
    for instance, stream in zip(instances, streams):
        graph = instance.graph
        sig = (graph.n_left, graph.n_right, graph.n_edges)
        parent = seen.get(sig)
        if parent is None:
            ws = workspace_for(graph)
        else:
            ws = transplant_workspace(graph, parent)
        seen.setdefault(sig, ws)
        results.append(
            solve_allocation(
                instance,
                epsilon,
                seed=stream,
                workspace=ws,
                **kwargs,
            )
        )
    return results
