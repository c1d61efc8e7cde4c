"""The repro.api façade: config validation, Engine parity, report
schema (DESIGN.md §10).

The load-bearing contract: on the same :class:`SolverConfig`,
``Engine.solve`` is bit-identical to
:func:`repro.core.pipeline.solve_allocation` and ``Engine.solve_mpc``
to :func:`repro.core.mpc_driver.solve_allocation_mpc` — the façade
changes how solves are addressed, never what they compute.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    CONFIG_SCHEMA,
    AllocationReport,
    Engine,
    SolverConfig,
)
from repro.core.mpc_driver import solve_allocation_mpc
from repro.core.pipeline import solve_allocation
from repro.graphs.generators import union_of_forests
from repro.kernels import use_backend
from repro.serve import AllocationSession, SolveRequest


@pytest.fixture
def instance():
    return union_of_forests(60, 45, 3, capacity=2, seed=2)


@pytest.fixture
def small_instance():
    return union_of_forests(20, 16, 2, capacity=2, seed=1)


# ----------------------------------------------------------------------
# SolverConfig validation
# ----------------------------------------------------------------------

def test_config_defaults_match_historical_entry_points():
    config = SolverConfig()
    assert config.epsilon == 0.2
    assert config.mode == "simulate"
    assert config.repair and config.boost
    assert config.backend is None


def test_config_unknown_backend_lists_choices():
    with pytest.raises(ValueError, match=r"unknown kernel backend 'nope'"):
        SolverConfig(backend="nope")
    with pytest.raises(
        ValueError, match=r"available: \['auto', 'native', 'optimized', 'reference'\]"
    ):
        SolverConfig(backend="nope")


@pytest.mark.parametrize(
    "bad",
    [
        {"epsilon": 0.9},
        {"epsilon": -0.1},
        {"mode": "psychic"},
        {"boost_mode": "harder"},
        {"alpha": 1.5},
        {"seed": True},
        {"seed": "zero"},
        {"rounding_copies": 0},
        {"lam": 0},
        {"max_workers": 0},
    ],
)
def test_config_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_config_json_round_trip():
    config = SolverConfig(
        epsilon=0.15,
        backend="reference",
        mode="faithful",
        seed=7,
        repair=False,
        boost=False,
        rounding_copies=3,
        lam=4,
        alpha=0.6,
        max_workers=2,
    )
    assert SolverConfig.from_json(config.to_json()) == config
    payload = config.to_dict()
    assert payload["schema"] == CONFIG_SCHEMA
    assert SolverConfig.from_dict(payload) == config


def test_config_from_dict_rejects_wrong_schema_and_unknown_fields():
    with pytest.raises(ValueError, match="unsupported SolverConfig schema"):
        SolverConfig.from_dict({"schema": "repro.api/SolverConfig/v999"})
    # v2 documents carried the removed ``substrate`` field.
    with pytest.raises(ValueError, match="unsupported SolverConfig schema"):
        SolverConfig.from_dict({"schema": "repro.api/SolverConfig/v2"})
    with pytest.raises(ValueError, match="unknown SolverConfig fields"):
        SolverConfig.from_dict({"schema": CONFIG_SCHEMA, "epsilonn": 0.1})


def test_config_replace_revalidates():
    config = SolverConfig()
    assert config.replace(epsilon=0.1).epsilon == 0.1
    with pytest.raises(ValueError):
        config.replace(backend="nope")


# ----------------------------------------------------------------------
# Engine.solve / Engine.solve_mpc bit-parity
# ----------------------------------------------------------------------

def test_engine_solve_bit_identical_to_solve_allocation(instance):
    config = SolverConfig(epsilon=0.2, boost=False, seed=5)
    with Engine(config) as engine:
        report = engine.solve(instance)
    direct = solve_allocation(instance, 0.2, seed=5, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()
    assert report.meta == direct.meta
    assert report.size == direct.size
    assert report.certificate == direct.mpc.certificate


def test_engine_solve_full_pipeline_parity(instance):
    with Engine(seed=3) as engine:
        report = engine.solve(instance)
    direct = solve_allocation(instance, 0.2, seed=3)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()


def test_engine_solve_parity_under_reference_backend(instance):
    with Engine(backend="reference", boost=False, seed=9) as engine:
        report = engine.solve(instance)
    with use_backend("reference"):
        direct = solve_allocation(instance, 0.2, seed=9, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()


def test_engine_solve_mpc_parity(instance):
    config = SolverConfig(seed=5)
    report = Engine(config).solve_mpc(instance)
    direct = solve_allocation_mpc(instance, 0.2, seed=5)
    assert np.array_equal(report.allocation.x, direct.allocation.x)
    assert report.certificate == direct.certificate
    assert report.round_ledger.by_category == direct.ledger.by_category
    assert report.local_rounds == direct.local_rounds
    assert report.mpc_rounds == direct.mpc_rounds


def test_engine_solve_mpc_faithful_parity(small_instance):
    config = SolverConfig(mode="faithful", lam=2, seed=7)
    report = Engine(config).solve_mpc(small_instance, sample_budget=6,
                                      space_slack=512.0)
    direct = solve_allocation_mpc(
        small_instance, 0.2, lam=2, mode="faithful",
        seed=7, sample_budget=6, space_slack=512.0,
    )
    assert np.array_equal(report.allocation.x, direct.allocation.x)
    assert report.round_ledger.by_category == direct.ledger.by_category
    assert report.meta["mode"] == "faithful"


def test_engine_seed_policy_and_per_call_override(instance):
    engine = Engine(seed=11, boost=False)
    from_policy = engine.solve(instance)
    explicit = engine.solve(instance, seed=11)
    assert np.array_equal(from_policy.edge_mask, explicit.edge_mask)
    other = engine.solve(instance, seed=12)
    assert other.summary() != from_policy.summary() or not np.array_equal(
        other.edge_mask, from_policy.edge_mask
    )


def test_engine_per_call_config_overrides(instance):
    engine = Engine(boost=False)
    report = engine.solve(instance, seed=2, epsilon=0.1)
    direct = solve_allocation(instance, 0.1, seed=2, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    with pytest.raises(ValueError):
        engine.solve(instance, epsilon=0.9)


def test_one_solve_one_report_on_every_path(instance):
    """One instance, knob set and seed: the Engine, the bare entry
    point, a cold session solve and a batch's first request report
    the same thing, ``meta`` included."""
    config = SolverConfig(rounding_copies=2, seed=5)
    with Engine(config) as engine:
        reports = [
            engine.solve(instance),
            engine.batch(instance, [SolveRequest(seed=5), SolveRequest(seed=6)])[0],
        ]
    direct = solve_allocation(instance, 0.2, rounding_copies=2, seed=5)
    cold = AllocationSession(instance, rounding_copies=2).solve(SolveRequest(seed=5))
    reports += [AllocationReport.from_pipeline(r) for r in (direct, cold)]
    expected = reports[0].to_dict()
    assert expected["meta"]["boost_epsilon"] == 0.25
    assert expected["meta"]["rounding_copies"] == 2
    assert not expected["meta"]["warm_start"]
    for report in reports[1:]:
        assert report.to_dict() == expected


def test_engine_rounding_copies_override(instance):
    report = Engine(rounding_copies=2, boost=False, seed=3).solve(instance)
    assert report.meta["rounding_copies"] == 2
    assert report.size >= 1
    assert report.certified


# ----------------------------------------------------------------------
# Engine lifecycle: scoped backend activation
# ----------------------------------------------------------------------

def test_engine_context_scopes_backend_selection():
    from repro.kernels import get_backend

    before = type(get_backend()).__name__
    with Engine(backend="reference"):
        assert type(get_backend()).__name__ == "ReferenceBackend"
    assert type(get_backend()).__name__ == before


def test_engine_activate_close_pair():
    from repro.kernels import get_backend

    before = type(get_backend()).__name__
    engine = Engine(backend="reference").activate()
    try:
        assert type(get_backend()).__name__ == "ReferenceBackend"
        engine.activate()  # idempotent
    finally:
        engine.close()
    assert type(get_backend()).__name__ == before
    engine.close()  # second close is a no-op


def test_engine_rejects_non_config():
    with pytest.raises(TypeError, match="SolverConfig"):
        Engine({"epsilon": 0.2})


# ----------------------------------------------------------------------
# AllocationReport schema
# ----------------------------------------------------------------------

def test_report_json_round_trip_pipeline(instance):
    report = Engine(boost=False, seed=5).solve(instance)
    text = report.to_json()
    detached = AllocationReport.from_json(text)
    assert detached.detached and not report.detached
    assert detached.to_json() == text
    assert detached.kind == "pipeline"
    assert detached.size == report.size
    assert detached.summary() == report.summary()
    assert detached.certificate == report.certificate
    assert detached.stage_records == report.stage_records
    assert detached.round_ledger.by_category == report.round_ledger.by_category
    assert np.array_equal(detached.edge_mask, report.edge_mask)
    assert np.array_equal(detached.final_exponents, report.final_exponents)
    assert detached.allocation is None  # fractional x not serialized here


def test_report_json_round_trip_mpc(instance):
    report = Engine(seed=5).solve_mpc(instance)
    detached = AllocationReport.from_json(report.to_json())
    assert detached.kind == "mpc"
    assert detached.size is None and detached.edge_mask is None
    assert np.array_equal(detached.allocation.x, report.allocation.x)
    assert detached.certificate == report.certificate
    assert detached.summary()["certified"] is True


def test_report_rejects_wrong_schema_or_kind():
    with pytest.raises(ValueError, match="unsupported AllocationReport schema"):
        AllocationReport.from_dict({"schema": "nope", "kind": "pipeline"})
    with pytest.raises(ValueError, match="report kind"):
        AllocationReport.from_dict(
            {"schema": "repro.api/AllocationReport/v1", "kind": "psychic"}
        )


def test_report_from_result_dispatch(instance):
    pipeline = solve_allocation(instance, 0.2, seed=1, boost=False)
    mpc = solve_allocation_mpc(instance, 0.2, seed=1)
    assert AllocationReport.from_result(pipeline).kind == "pipeline"
    assert AllocationReport.from_result(mpc).kind == "mpc"
    with pytest.raises(TypeError):
        AllocationReport.from_result({"not": "a result"})


# ----------------------------------------------------------------------
# batch / stream / sessions through the Engine
# ----------------------------------------------------------------------

def test_engine_batch_matches_solve_stream(instance):
    from repro.serve import AllocationSession, SolveRequest, solve_stream

    requests = [SolveRequest(), SolveRequest(capacity_updates={0: 3})]
    with Engine(boost=False, seed=4) as engine:
        reports = engine.batch(instance, requests)
    session = AllocationSession(instance, epsilon=0.2, boost=False)
    direct = solve_stream(session, requests, seed=4)
    assert [r.size for r in reports] == [r.size for r in direct]
    assert [r.meta.get("warm_start") for r in reports] == [False, True]


def test_engine_batch_accepts_json_requests(instance):
    with Engine(boost=False, seed=4) as engine:
        reports = engine.batch(
            instance, [{"seed": 1}, {"epsilon": 0.15, "warm": False}]
        )
    assert len(reports) == 2
    assert all(r.certified for r in reports)


def test_engine_open_session_warm_contract(instance):
    with Engine(boost=False) as engine:
        session = engine.open_session(instance)
        cold = session.solve(seed=0)
        warm = session.solve(seed=1)
    assert not cold.meta["warm_start"]
    assert warm.meta["warm_start"]
    assert session.stats.warm_solves == 1


def test_engine_stream_over_scenario(instance):
    from repro.dynamic import SCENARIOS

    deltas = SCENARIOS["diurnal_wave"](instance, 3, seed=0)
    with Engine(boost=False, seed=2) as engine:
        outcome = engine.stream(instance, deltas)
    assert outcome.prime is not None and outcome.prime.certified
    assert len(outcome.steps) == 3
    assert all(row["certified"] for row in outcome.rows())
    assert len(outcome.reports) == 3
    # the session stays resident for further events
    assert outcome.session.stats.deltas_applied == 3


def test_engine_stream_accepts_json_deltas(instance):
    with Engine(boost=False, seed=2) as engine:
        outcome = engine.stream(
            instance,
            [{"type": "capacity_scale", "factor": 1.5}],
        )
    assert len(outcome.steps) == 1 and outcome.rows()[0]["certified"]


def test_engine_generate_and_load_instance(tmp_path):
    from repro.graphs.io import save_instance

    inst = Engine.generate_instance(
        "union_of_forests", n_left=20, n_right=16, k=2, seed=0
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = Engine.load_instance(path)
    assert loaded.n_left == 20 and loaded.n_right == 16
    with pytest.raises(ValueError, match="unknown family"):
        Engine.generate_instance("nope")


# ----------------------------------------------------------------------
# Backend registration
# ----------------------------------------------------------------------

def test_registry_register_backend_visible_both_ways():
    from repro.kernels import ReferenceBackend, available_backends, register_backend

    class NamedBackend(ReferenceBackend):
        name = "test_registry_backend"

    register_backend("test_registry_backend", NamedBackend)
    try:
        assert "test_registry_backend" in available_backends()
        config = SolverConfig(backend="test_registry_backend")
        assert config.backend == "test_registry_backend"
    finally:
        from repro.kernels import backends as backends_module

        backends_module._FACTORIES.pop("test_registry_backend")


def test_json_payloads_are_pure(instance):
    report = Engine(boost=False, seed=1).solve(instance)
    # json round trip must not lose anything to numpy scalar types
    assert json.loads(report.to_json()) == report.to_dict()
