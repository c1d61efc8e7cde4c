"""Backend parity across the three registered kernel backends.

The kernel-layer contract (DESIGN.md §6/§11) has two tiers:

* the numpy backends (``reference``/``optimized``) may differ in
  caching and buffer reuse but never in arithmetic — every primitive
  performs the same floating-point operations in the same order, so
  whole trajectories (Algorithm 1/3, the sampled Algorithm 2, the
  b-matching dynamics) must agree to the last bit
  (``np.array_equal``, no tolerances);
* the fused C ``native`` backend is bit-identical for
  order-independent primitives (scatter, max, the exp-table weights)
  and for the integer β dynamics, but folds row sums sequentially
  where numpy's ``reduceat`` uses SIMD/pairwise partial sums — those
  agree to a few ulps, the documented tolerance tier.

The native tests skip (with the probed reason) on hosts without a C
compiler — the graceful-degradation contract.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.bmatching.problem import BMatchingInstance
from repro.bmatching.proportional import proportional_bmatching
from repro.core.proportional import ProportionalRun
from repro.core.sampled import SampledRun
from repro.graphs.bipartite import build_graph
from repro.graphs.generators import union_of_forests
from repro.kernels import (
    OptimizedBackend,
    ReferenceBackend,
    available_backends,
    backend_availability,
    get_backend,
    proportional_round,
    use_backend,
    workspace_for,
)
from repro.kernels.native import native_available

REF = ReferenceBackend()
OPT = OptimizedBackend()

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native backend unavailable: {backend_availability('native').get('native')}",
)

# ulp-level agreement for the native backend's sequentially-folded row
# sums (weights in (0,1], denominators in [1, deg] — a handful of ulps)
TOL = dict(rtol=1e-12, atol=1e-14)


def NAT():
    from repro.kernels.native import NativeBackend

    return NativeBackend()


def random_graph(n_left, n_right, m, seed):
    """Random simple bipartite graph; may leave vertices isolated."""
    rng = np.random.default_rng(seed)
    if n_left == 0 or n_right == 0 or m == 0:
        return build_graph(n_left, n_right, [], [])
    pairs = {
        (int(rng.integers(n_left)), int(rng.integers(n_right))) for _ in range(m)
    }
    eu, ev = zip(*sorted(pairs))
    return build_graph(n_left, n_right, eu, ev)


GRAPH_CASES = [
    # (n_left, n_right, m, seed) — includes degree-0 vertices on both
    # sides (random sampling leaves isolates), a single-edge graph and
    # the empty graph.
    (1, 1, 1, 0),
    (5, 3, 0, 0),
    (6, 4, 7, 1),
    (30, 20, 55, 2),
    (100, 80, 300, 3),
    (200, 150, 700, 4),
]


# ----------------------------------------------------------------------
# Primitive-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_segment_primitives_bit_identical(case):
    g = random_graph(*case)
    rng = np.random.default_rng(42)
    per_slot = rng.random(g.n_edges)
    for indptr, layout in (
        (g.left_indptr, g.left_layout),
        (g.right_indptr, g.right_layout),
    ):
        s_ref = REF.segment_sum(per_slot, indptr)
        s_opt = OPT.segment_sum(per_slot, indptr, layout=layout)
        assert np.array_equal(s_ref, s_opt) and s_ref.dtype == s_opt.dtype
        m_ref = REF.segment_max(per_slot, indptr, -1.0)
        m_opt = OPT.segment_max(per_slot, indptr, -1.0, layout=layout)
        assert np.array_equal(m_ref, m_opt) and m_ref.dtype == m_opt.dtype


@pytest.mark.parametrize("case", GRAPH_CASES)
def test_softmax_and_expand_bit_identical(case):
    g = random_graph(*case)
    rng = np.random.default_rng(7)
    exponents = rng.integers(-40, 40, size=g.n_edges)
    scale = float(np.log1p(0.125))
    ref = REF.segment_softmax_shifted(exponents, g.left_indptr, scale)
    opt = OPT.segment_softmax_shifted(
        exponents, g.left_indptr, scale, layout=g.left_layout
    )
    assert np.array_equal(ref, opt)
    per_row = rng.random(g.n_left)
    assert np.array_equal(
        REF.expand_rows(per_row, g.left_indptr),
        OPT.expand_rows(per_row, g.left_indptr, layout=g.left_layout),
    )


def test_softmax_does_not_mutate_input_by_default():
    g = random_graph(30, 20, 55, 2)
    e = np.random.default_rng(0).random(g.n_edges)
    before = e.copy()
    OPT.segment_softmax_shifted(e, g.left_indptr, 0.1, layout=g.left_layout)
    assert np.array_equal(e, before)


def test_scatter_add_matches_bincount_and_add_at():
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 17, size=400)
    w = rng.random(400)
    expected = np.zeros(17)
    np.add.at(expected, idx, w)
    for be in (REF, OPT):
        assert np.array_equal(be.scatter_add(idx, weights=w, minlength=17), expected)
        assert np.array_equal(
            be.scatter_add(idx, minlength=17), np.bincount(idx, minlength=17)
        )


def test_gather_as_float_exact():
    g = random_graph(30, 20, 55, 5)
    ws = workspace_for(g)
    beta = np.random.default_rng(1).integers(-1000, 1000, size=g.n_right)
    ref = REF.gather_as_float(beta, g.left_adj)
    opt = OPT.gather_as_float(beta, g.left_adj, row_buf=ws.beta_f64)
    assert ref.dtype == np.float64 and opt.dtype == np.float64
    assert np.array_equal(ref, opt)


# ----------------------------------------------------------------------
# Trajectory-level parity
# ----------------------------------------------------------------------
def _proportional_trajectory(graph, caps, epsilon, rounds, backend):
    with use_backend(backend):
        run = ProportionalRun(graph, caps, epsilon)
        states = []
        for _ in range(rounds):
            run.step()
            states.append(
                (run.beta_exp.copy(), run.x_slots.copy(), run.alloc.copy())
            )
        return states


@pytest.mark.parametrize("case", GRAPH_CASES)
def test_proportional_run_trajectories_bit_identical(case):
    g = random_graph(*case)
    caps = np.ones(g.n_right, dtype=np.int64)
    ref = _proportional_trajectory(g, caps, 0.1, 12, "reference")
    opt = _proportional_trajectory(g, caps, 0.1, 12, "optimized")
    for (b_r, x_r, a_r), (b_o, x_o, a_o) in zip(ref, opt):
        assert np.array_equal(b_r, b_o)
        assert np.array_equal(x_r, x_o)
        assert np.array_equal(a_r, a_o)


def _sampled_trajectory(graph, caps, backend):
    with use_backend(backend):
        run = SampledRun(
            graph, caps, 0.2, block=3, sample_budget=4, sampler="keyed", seed=11
        )
        run.run_rounds(9)
        return run.beta_exp.copy(), run.x_slots.copy(), run.alloc.copy()


@pytest.mark.parametrize("case", GRAPH_CASES[2:])
def test_sampled_run_trajectories_bit_identical(case):
    g = random_graph(*case)
    caps = np.full(g.n_right, 2, dtype=np.int64)
    b_r, x_r, a_r = _sampled_trajectory(g, caps, "reference")
    b_o, x_o, a_o = _sampled_trajectory(g, caps, "optimized")
    assert np.array_equal(b_r, b_o)
    assert np.array_equal(x_r, x_o)
    assert np.array_equal(a_r, a_o)


@pytest.mark.parametrize("case", GRAPH_CASES[2:])
def test_bmatching_trajectories_bit_identical(case):
    g = random_graph(*case)
    rng = np.random.default_rng(9)
    instance = BMatchingInstance(
        graph=g,
        b_left=rng.integers(1, 4, size=g.n_left),
        b_right=rng.integers(1, 5, size=g.n_right),
    )
    with use_backend("reference"):
        ref = proportional_bmatching(instance, 0.125, 10)
    with use_backend("optimized"):
        opt = proportional_bmatching(instance, 0.125, 10)
    assert np.array_equal(ref.x, opt.x)
    assert ref.weight == opt.weight


def test_round_kernel_with_units_bit_identical():
    g = random_graph(40, 30, 90, 6)
    ws = workspace_for(g)
    beta = np.random.default_rng(2).integers(-5, 5, size=g.n_right)
    units = np.random.default_rng(3).integers(1, 4, size=g.n_left).astype(np.float64)
    x_ref, a_ref = proportional_round(ws, beta, 0.1, left_units=units, backend=REF)
    x_opt, a_opt = proportional_round(ws, beta, 0.1, left_units=units, backend=OPT)
    assert np.array_equal(x_ref, x_opt)
    assert np.array_equal(a_ref, a_opt)


# ----------------------------------------------------------------------
# Registry / workspace mechanics
# ----------------------------------------------------------------------
def test_backend_registry_and_context_manager():
    assert {"reference", "optimized"} <= set(available_backends())
    before = get_backend()
    with use_backend("reference") as be:
        assert be.name == "reference"
        assert get_backend() is be
    assert get_backend().name == before.name
    with pytest.raises(ValueError):
        with use_backend("no-such-backend"):
            pass


# ----------------------------------------------------------------------
# AutoBackend: size-dispatching between optimized and native
# ----------------------------------------------------------------------
class _RecordingNative:
    """Stand-in native delegate that records and defers to reference."""

    def __init__(self):
        self.calls = 0

    def proportional_round(self, workspace, beta_exp, scale, *, left_units=None):
        self.calls += 1
        return REF.proportional_round(
            workspace, beta_exp, scale, left_units=left_units
        )


def _auto_case(n_left=40, n_right=30, m=90, seed=6):
    g = random_graph(n_left, n_right, m, seed)
    ws = workspace_for(g)
    beta = np.random.default_rng(2).integers(-5, 5, size=g.n_right)
    return ws, beta


def test_auto_backend_registered():
    from repro.kernels import AutoBackend

    assert "auto" in available_backends()
    with use_backend("auto") as be:
        assert isinstance(be, AutoBackend)
        assert be.native_min_edges == AutoBackend.AUTO_NATIVE_MIN_EDGES


def test_auto_dispatches_on_edge_count_threshold():
    from repro.kernels import AutoBackend

    ws, beta = _auto_case()
    # Below the crossover the delegate must not be touched.
    auto = AutoBackend(native_min_edges=ws.n_edges + 1)
    fake = _RecordingNative()
    auto._native, auto._native_checked = fake, True
    x_small, a_small = auto.proportional_round(ws, beta, 0.1)
    assert fake.calls == 0
    x_opt, a_opt = OPT.proportional_round(ws, beta, 0.1)
    assert np.array_equal(x_small, x_opt) and np.array_equal(a_small, a_opt)
    # At/above the crossover every fused round goes to the delegate.
    auto = AutoBackend(native_min_edges=ws.n_edges)
    fake = _RecordingNative()
    auto._native, auto._native_checked = fake, True
    auto.proportional_round(ws, beta, 0.1)
    auto.proportional_round(ws, beta, 0.1)
    assert fake.calls == 2


def test_auto_degrades_to_optimized_when_native_unusable(monkeypatch):
    import repro.kernels.native as native_pkg
    from repro.kernels import AutoBackend

    # The delegate probe imports lazily from the package namespace, so
    # patching the re-export is what a compiler-less host looks like.
    monkeypatch.setattr(
        native_pkg, "native_availability", lambda: (False, "no C compiler")
    )
    ws, beta = _auto_case()
    auto = AutoBackend(native_min_edges=1)  # everything is "large"
    x_auto, a_auto = auto.proportional_round(ws, beta, 0.1)
    assert auto._native is None  # probe ran, found nothing, no raise
    x_opt, a_opt = OPT.proportional_round(ws, beta, 0.1)
    assert np.array_equal(x_auto, x_opt) and np.array_equal(a_auto, a_opt)


def test_auto_unfused_primitives_are_exactly_optimized():
    from repro.kernels import AutoBackend

    g = random_graph(30, 20, 55, 2)
    rng = np.random.default_rng(42)
    per_slot = rng.random(g.n_edges)
    auto = AutoBackend()
    assert np.array_equal(
        auto.segment_sum(per_slot, g.right_indptr),
        OPT.segment_sum(per_slot, g.right_indptr),
    )
    assert np.array_equal(
        auto.segment_max(per_slot, g.right_indptr, -1.0),
        OPT.segment_max(per_slot, g.right_indptr, -1.0),
    )


@needs_native
def test_auto_above_crossover_matches_native():
    ws, beta = _auto_case()
    from repro.kernels import AutoBackend

    auto = AutoBackend(native_min_edges=1)
    x_auto, a_auto = auto.proportional_round(ws, beta, 0.1)
    x_nat, a_nat = NAT().proportional_round(ws, beta, 0.1)
    assert np.array_equal(x_auto, x_nat) and np.array_equal(a_auto, a_nat)


def test_workspace_is_cached_per_graph():
    g = random_graph(10, 8, 20, 12)
    ws1 = workspace_for(g)
    ws2 = workspace_for(g)
    assert ws1 is ws2
    assert ws1.left is g.left_layout and ws1.right is g.right_layout


def test_solved_graph_dies_by_reference_count():
    """The graph owns its workspace and nothing points back, so a
    cold-solved graph is freed as soon as its instance and report are
    dropped — without the cyclic garbage collector."""
    from repro.api import Engine

    gc.disable()
    try:
        instance = union_of_forests(40, 30, 2, capacity=2, seed=1)
        report = Engine().solve(instance, seed=0)
        graph = weakref.ref(instance.graph)
        del instance, report
        assert graph() is None
    finally:
        gc.enable()


def test_slot_owner_matches_repeat():
    g = random_graph(25, 18, 60, 13)
    assert np.array_equal(
        g.left_slot_owner,
        np.repeat(np.arange(g.n_left), g.left_degrees),
    )
    assert np.array_equal(
        g.right_slot_owner,
        np.repeat(np.arange(g.n_right), g.right_degrees),
    )


def test_compute_x_alloc_rejects_foreign_workspace():
    from repro.core.proportional import compute_x_alloc

    a = random_graph(10, 8, 20, 15)
    b = random_graph(12, 9, 25, 16)
    beta = np.zeros(a.n_right, dtype=np.int64)
    with pytest.raises(ValueError, match="different graph"):
        compute_x_alloc(a, beta, 0.1, workspace=workspace_for(b))


def test_concurrent_solves_on_one_graph_match_serial():
    """Workspace scratch is thread-local: concurrent runs on one graph
    must not corrupt each other — including the pool pattern where all
    runs are *constructed* on the main thread (capturing the same
    cached workspace) and only *stepped* on worker threads."""
    import threading

    g = random_graph(150, 120, 500, 17)
    caps = np.full(g.n_right, 2, dtype=np.int64)
    serial = ProportionalRun(g, caps, 0.1).run(15).beta_exp.copy()

    runs = [ProportionalRun(g, caps, 0.1) for _ in range(4)]
    assert len({id(r.workspace) for r in runs}) == 1  # all share one workspace
    threads = [threading.Thread(target=r.run, args=(15,)) for r in runs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(np.array_equal(serial, r.beta_exp) for r in runs)


def test_workspace_reuse_across_runs_is_bit_identical():
    """Two consecutive runs sharing one workspace must not interfere —
    the scratch buffers carry no state between rounds."""
    g = random_graph(50, 40, 130, 14)
    caps = np.ones(g.n_right, dtype=np.int64)
    with use_backend("optimized"):
        first = ProportionalRun(g, caps, 0.1).run(8)
        second = ProportionalRun(g, caps, 0.1).run(8)
    assert np.array_equal(first.beta_exp, second.beta_exp)
    assert np.array_equal(first.x_slots, second.x_slots)


def test_batch_adopts_workspaces_across_equal_graph_copies():
    """solve_allocation_many structurally shares layouts across
    equal-but-distinct graph objects (the deserialized-request serving
    shape), with results bit-identical to per-instance solves."""
    from repro.core.pipeline import solve_allocation, solve_allocation_many
    from repro.utils.rng import spawn

    def fresh():
        return [
            union_of_forests(60, 50, 3, capacity=2 + (i % 2), seed=5)
            for i in range(4)
        ]

    batch = fresh()
    batched = solve_allocation_many(batch, 0.2, seed=3, boost=False)
    g0 = batch[0].graph
    assert all(inst.graph.left_layout is g0.left_layout for inst in batch[1:])
    assert all(inst.graph.right_layout is g0.right_layout for inst in batch[1:])

    solo = [
        solve_allocation(inst, 0.2, seed=s, boost=False)
        for inst, s in zip(fresh(), spawn(3, 4))
    ]
    for a, b in zip(batched, solo):
        assert np.array_equal(a.edge_mask, b.edge_mask)
        assert a.size == b.size


def test_batch_does_not_adopt_across_different_structures():
    """Same vertex/edge counts but different CSR content must not
    share layouts — the signature only gates the attempt, equality of
    ``indptr`` decides adoption."""
    from repro.core.pipeline import solve_allocation_many

    a = union_of_forests(60, 50, 3, capacity=2, seed=5)
    b = union_of_forests(60, 50, 3, capacity=2, seed=6)
    solve_allocation_many([a, b], 0.2, seed=0, boost=False)
    if a.graph.n_edges == b.graph.n_edges:  # same signature bucket
        assert a.graph.left_layout is not b.graph.left_layout


# ----------------------------------------------------------------------
# Native backend: the two-tier parity contract (DESIGN.md §11)
# ----------------------------------------------------------------------
DEGENERATE_GRAPHS = [
    # zero-edge instance with vertices on both sides
    lambda: build_graph(5, 3, [], []),
    # empty rows on both CSR sides around two edges
    lambda: build_graph(6, 4, [0, 5], [1, 2]),
    # single-slot segments: every left row has exactly one edge
    lambda: build_graph(4, 4, [0, 1, 2, 3], [1, 0, 3, 2]),
    # single right hub: one segment absorbing every slot
    lambda: build_graph(5, 1, [0, 1, 2, 3, 4], [0, 0, 0, 0, 0]),
]


@needs_native
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_native_order_independent_primitives_bit_identical(case):
    g = random_graph(*case)
    nat = NAT()
    rng = np.random.default_rng(21)
    per_slot = rng.random(g.n_edges)
    for indptr, layout in (
        (g.left_indptr, g.left_layout),
        (g.right_indptr, g.right_layout),
    ):
        assert np.array_equal(
            REF.segment_max(per_slot, indptr, -1.0),
            nat.segment_max(per_slot, indptr, -1.0, layout=layout),
        )
    idx = rng.integers(0, max(g.n_right, 1), size=200)
    w = rng.random(200)
    assert np.array_equal(
        REF.scatter_add(idx, weights=w, minlength=g.n_right + 3),
        nat.scatter_add(idx, weights=w, minlength=g.n_right + 3),
    )
    # counting scatter has no weights: the C path is float64-only, the
    # fallback must stay bincount's int64
    assert np.array_equal(
        REF.scatter_add(idx, minlength=g.n_right + 3),
        nat.scatter_add(idx, minlength=g.n_right + 3),
    )


@needs_native
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_native_row_sums_and_softmax_tolerance_tier(case):
    g = random_graph(*case)
    nat = NAT()
    rng = np.random.default_rng(22)
    per_slot = rng.random(g.n_edges)
    for indptr, layout in (
        (g.left_indptr, g.left_layout),
        (g.right_indptr, g.right_layout),
    ):
        np.testing.assert_allclose(
            nat.segment_sum(per_slot, indptr, layout=layout),
            REF.segment_sum(per_slot, indptr),
            **TOL,
        )
    exponents = rng.integers(-40, 40, size=g.n_edges)
    scale = float(np.log1p(0.125))
    sm = nat.segment_softmax_shifted(
        exponents, g.left_indptr, scale, layout=g.left_layout
    )
    np.testing.assert_allclose(
        sm, REF.segment_softmax_shifted(exponents, g.left_indptr, scale), **TOL
    )
    # rows with slots must still normalize to exactly ~1
    if g.n_edges:
        sums = nat.segment_sum(sm, g.left_indptr, layout=g.left_layout)
        np.testing.assert_allclose(sums[g.left_layout.nonempty], 1.0, **TOL)


@needs_native
@pytest.mark.parametrize("case", GRAPH_CASES)
def test_native_trajectories_beta_identical_values_tolerance(case):
    """The integer β dynamics must be *exactly* the reference's every
    round — thresholds never flip on an ulp — while x/alloc sit in the
    tolerance tier."""
    g = random_graph(*case)
    caps = np.ones(g.n_right, dtype=np.int64)
    ref = _proportional_trajectory(g, caps, 0.1, 12, "reference")
    nat = _proportional_trajectory(g, caps, 0.1, 12, "native")
    for (b_r, x_r, a_r), (b_n, x_n, a_n) in zip(ref, nat):
        assert np.array_equal(b_r, b_n)
        np.testing.assert_allclose(x_n, x_r, **TOL)
        np.testing.assert_allclose(a_n, a_r, **TOL)


@needs_native
@pytest.mark.parametrize("make_graph", DEGENERATE_GRAPHS)
def test_native_degenerate_csr_shapes(make_graph):
    g = make_graph()
    nat = NAT()
    ws = workspace_for(g)
    beta = np.random.default_rng(4).integers(-6, 6, size=g.n_right)
    x_ref, a_ref = proportional_round(ws, beta, 0.1, backend=REF)
    x_nat, a_nat = proportional_round(ws, beta, 0.1, backend=nat)
    np.testing.assert_allclose(x_nat, x_ref, **TOL)
    np.testing.assert_allclose(a_nat, a_ref, **TOL)
    # single-slot rows are exact: weight 1/1, no sum ordering involved
    if g.n_edges and np.all(np.diff(g.left_indptr) <= 1):
        assert np.array_equal(x_nat, x_ref)


@needs_native
def test_native_round_with_units_tolerance():
    g = random_graph(40, 30, 90, 6)
    ws = workspace_for(g)
    beta = np.random.default_rng(2).integers(-5, 5, size=g.n_right)
    units = np.random.default_rng(3).integers(1, 4, size=g.n_left).astype(np.float64)
    x_ref, a_ref = proportional_round(ws, beta, 0.1, left_units=units, backend=REF)
    x_nat, a_nat = proportional_round(ws, beta, 0.1, left_units=units, backend=NAT())
    np.testing.assert_allclose(x_nat, x_ref, **TOL)
    np.testing.assert_allclose(a_nat, a_ref, **TOL)


@needs_native
def test_native_huge_exponent_range_no_overflow():
    """Exponent spreads far past the exp-table's underflow point must
    produce exact zeros, never nonsense, and keep rows normalized."""
    g = build_graph(1, 3, [0, 0, 0], [0, 1, 2])
    ws = workspace_for(g)
    beta = np.array([0, -50_000, 100_000], dtype=np.int64)
    x_ref, a_ref = proportional_round(ws, beta, 0.1, backend=REF)
    x_nat, a_nat = proportional_round(ws, beta, 0.1, backend=NAT())
    assert np.array_equal(x_nat, x_ref)  # 1.0 and exact underflow zeros
    assert np.array_equal(a_nat, a_ref)


@needs_native
def test_dynamic_session_structural_delta_under_native():
    """A resident DynamicSession driven by the native backend survives
    a structural delta: warm resolve, transplanted workspace, feasible
    Definition-5 allocation, satisfied certificate."""
    from repro.dynamic import ClientArrival, DynamicSession
    from repro.serve.session import check_integral_feasible

    instance = union_of_forests(40, 30, 3, capacity=2, seed=0)
    with use_backend("native"):
        dyn = DynamicSession(instance, epsilon=0.2, boost=False)
        dyn.resolve(seed=0)
        dyn.apply(ClientArrival(neighbors=((0, 1), (2, 3))))
        warm = dyn.resolve(seed=1)
    assert warm.meta["warm_start"]
    assert dyn.stats.structural_rebuilds == 1
    assert warm.mpc.certificate.satisfied
    check_integral_feasible(warm.instance, warm.edge_mask)


@needs_native
def test_engine_native_cold_solve_certified_and_feasible():
    """Engine(SolverConfig(backend='native')) end-to-end: the cold
    solve must pass the termination certificate and the Definition-5
    feasibility check (the ISSUE's acceptance gate)."""
    from repro.api import Engine, SolverConfig
    from repro.serve.session import check_integral_feasible

    instance = union_of_forests(80, 60, 3, capacity=2, seed=1)
    config = SolverConfig(backend="native", boost=False, seed=7)
    with Engine(config) as engine:
        report = engine.solve(instance)
    assert report.certified
    assert report.certificate.satisfied
    check_integral_feasible(instance, report.edge_mask)
    assert report.size == int(report.edge_mask.sum())


def test_native_unavailability_is_graceful(monkeypatch):
    """Without a compiler the backend stays registered but unusable:
    listing works, the reason is reported, resolving raises it, and
    nothing crashes at import time."""
    import repro.kernels.backends as backends_mod
    from repro.kernels.native import KernelBuildError

    def no_native():
        return False, "no C compiler found (set CC or REPRO_NATIVE_CC)"

    monkeypatch.setitem(backends_mod._PROBES, "native", no_native)
    assert "native" in available_backends()
    assert "native" not in available_backends(usable_only=True)
    reason = backend_availability()["native"]
    assert "compiler" in reason

    def fail_factory():
        raise KernelBuildError(reason)

    monkeypatch.setitem(backends_mod._FACTORIES, "native", fail_factory)
    with pytest.raises(KernelBuildError, match="compiler"):
        with use_backend("native"):
            pass  # pragma: no cover


def test_config_rejects_unavailable_backend(monkeypatch):
    """SolverConfig surfaces the availability reason eagerly."""
    import repro.kernels.backends as backends_mod
    from repro.api import SolverConfig

    monkeypatch.setitem(
        backends_mod._PROBES, "native", lambda: (False, "no C compiler found")
    )
    with pytest.raises(ValueError, match="no C compiler"):
        SolverConfig(backend="native")

