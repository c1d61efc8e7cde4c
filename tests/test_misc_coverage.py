"""Coverage for remaining paths: engine details, primitives edge
cases, instance metadata, harness utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import build_graph, profile_graph
from repro.graphs.generators import star_instance, union_of_forests
from repro.graphs.instances import AllocationInstance
from repro.mpc import ColumnarCluster, Shipment
from repro.mpc.columns import ColumnBatch
from repro.mpc.primitives import sample_sort, tree_broadcast, tree_reduce_vector


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
    c = ColumnarCluster(1, 10_000)
    c.load_batches([ColumnBatch("r", {"v": np.array([3, 1, 2])}, key="v")])
    sample_sort(c)
    assert c.rows("r")[0].cols["v"].tolist() == [1, 2, 3]


def test_sample_sort_empty():
    c = ColumnarCluster(3, 1000)
    c.load_batches([ColumnBatch("r", {"v": np.empty(0, dtype=np.int64)}, key="v")])
    sample_sort(c)
    assert c.kinds() == ["r"]
    assert c.total_stored_words() == 0


def test_sample_sort_duplicate_keys():
    c = ColumnarCluster(3, 10_000)
    c.load_batches([ColumnBatch("r", {"v": np.array([5, 5, 5, 1, 1, 9])}, key="v")])
    sample_sort(c, seed=2)
    batch, home = c.rows("r")
    assert batch.cols["v"].tolist() == [1, 1, 5, 5, 5, 9]
    assert np.all(home[:-1] <= home[1:])


def test_tree_reduce_empty_cluster():
    c = ColumnarCluster(4, 1000)
    c.load_batches([])
    total, _ = tree_reduce_vector(c, np.zeros((4, 1)))
    assert total.tolist() == [0.0]


def test_tree_broadcast_two_machines():
    c = ColumnarCluster(2, 1000)
    c.load_batches([])
    rounds = tree_broadcast(c, 42, tag="x")
    assert rounds == 1
    batch, home = c.rows("x")
    assert home.tolist() == [0, 1]
    assert batch.payload_row(1).tolist() == [42]


def test_cluster_round_log_labels():
    c = ColumnarCluster(2, 1000)
    c.load_batches([ColumnBatch("a", {"k": np.array([1])})])
    c.exchange_columnar(c.keep_all_shipments(), label="my-label")
    assert c.round_log[-1].label == "my-label"
    assert c.round_log[-1].round_index == 1


def test_exchange_bad_destination():
    c = ColumnarCluster(2, 1000)
    c.load_batches([ColumnBatch("a", {"k": np.array([1])})])
    batch, home = c.rows("a")
    with pytest.raises(ValueError, match="out of range"):
        c.exchange_columnar([Shipment(batch, home, np.array([7]))])


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
