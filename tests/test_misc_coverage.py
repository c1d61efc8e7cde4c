"""Coverage for remaining paths: engine details, primitives edge
cases, instance metadata, harness utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import build_graph, profile_graph
from repro.graphs.generators import star_instance, union_of_forests
from repro.graphs.instances import AllocationInstance
from repro.mpc.cluster import MPCCluster
from repro.mpc.primitives import sample_sort, tree_broadcast, tree_reduce


# ----------------------------------------------------------------------
# instance metadata
# ----------------------------------------------------------------------

def test_instance_describe_and_with_capacities():
    inst = union_of_forests(10, 8, 2, capacity=2, seed=0)
    desc = inst.describe()
    assert desc["n_left"] == 10 and desc["lambda_bound"] == 2
    recap = inst.with_capacities(np.full(8, 5, dtype=np.int64))
    assert recap.capacities.tolist() == [5] * 8
    assert recap.name.endswith("+recap")
    # Original untouched (capacities frozen).
    with pytest.raises(ValueError):
        inst.capacities[0] = 99


def test_instance_rejects_bad_bound():
    g = build_graph(2, 2, [0], [0])
    with pytest.raises(ValueError):
        AllocationInstance(graph=g, capacities=np.array([1, 1]), arboricity_upper_bound=0)


def test_profile_exported_from_graphs_package():
    inst = star_instance(5)
    prof = profile_graph(inst.graph)
    assert prof.n_components == 1


# ----------------------------------------------------------------------
# MPC primitives: corner cases
# ----------------------------------------------------------------------

def test_sample_sort_single_machine():
    c = MPCCluster(1, 10_000)
    c.load([("r", v) for v in (3, 1, 2)])
    sample_sort(c, key_fn=lambda rec: rec[1])
    assert [rec[1] for rec in c.machines[0].storage] == [1, 2, 3]


def test_sample_sort_empty():
    c = MPCCluster(3, 1000)
    c.load([])
    sample_sort(c, key_fn=lambda rec: rec)
    assert c.all_records() == []


def test_sample_sort_duplicate_keys():
    c = MPCCluster(3, 10_000)
    c.load([("r", v) for v in [5, 5, 5, 1, 1, 9]])
    sample_sort(c, key_fn=lambda rec: rec[1], seed=2)
    flat = [rec[1] for m in c.machines for rec in m.storage]
    assert flat == [1, 1, 5, 5, 5, 9]


def test_tree_reduce_empty_cluster():
    c = MPCCluster(4, 1000)
    c.load([])
    total, _ = tree_reduce(c, extract=lambda r: 1, combine=lambda a, b: a + b, zero=0)
    assert total == 0


def test_tree_broadcast_two_machines():
    c = MPCCluster(2, 1000)
    c.load([])
    rounds = tree_broadcast(c, 42, tag="x")
    assert rounds == 1
    assert ("x", 42) in c.machines[1].storage


def test_cluster_round_log_labels():
    c = MPCCluster(2, 1000)
    c.load([("a", 1)])

    def keep(mid, records):
        for rec in records:
            yield mid, rec

    c.exchange(keep, label="my-label")
    assert c.round_log[-1].label == "my-label"
    assert c.round_log[-1].round_index == 1


def test_exchange_bad_destination():
    c = MPCCluster(2, 1000)
    c.load([("a", 1)])

    def bad(mid, records):
        for rec in records:
            yield 7, rec

    with pytest.raises(ValueError, match="out of range"):
        c.exchange(bad)


# ----------------------------------------------------------------------
# harness utilities
# ----------------------------------------------------------------------

def test_default_results_dir_finds_repo_root():
    from repro.experiments.harness import default_results_dir

    path = default_results_dir()
    assert path.name == "results"
    assert path.parent.name == "benchmarks"


def test_duplicate_experiment_registration_rejected():
    from repro.experiments.harness import register, get_experiment

    get_experiment("e1")  # ensure modules loaded
    with pytest.raises(ValueError, match="duplicate"):
        register("e1", "again", "claim")(lambda **kw: None)
