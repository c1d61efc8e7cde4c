"""Direct MPC simulation of the proportional dynamics (§3.2.1 baseline).

Before the paper's phase compression, the obvious way to run Algorithm
1 in sublinear MPC is round-for-round: each LOCAL round is three
accounted exchanges,

1. **join** — β values travel to their edges (route edge records and
   β records by right vertex, emit ``(u, v, β_v)``);
2. **normalize** — group by left vertex, compute the proportional
   split ``x_{u,v}`` locally, emit per-edge contributions keyed by v;
3. **aggregate** — group by right vertex, fold ``alloc_v``, apply the
   threshold update to β.

That is ``3·τ = O(log λ)`` MPC rounds with exact aggregates — the
baseline Theorem 10's ``Õ(√log λ)`` improves on.  This module executes
it on the accounted cluster, validating against the vectorized
dynamics, and is quoted by E5's discussion as the middle rung between
AZM18 (O(log n)) and the compressed algorithm.

Numerical note: machines exchange β as *integer exponents* and do the
max-shifted exponentiation locally, exactly like the vectorized path,
so the two implementations agree bit-for-bit on decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.proportional import ProportionalRun
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities
from repro.mpc.columnar import ColumnarCluster, Shipment, cluster_for
from repro.mpc.columns import ColumnBatch
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["DirectSimulationResult", "simulate_local_rounds_on_cluster"]


@dataclass(frozen=True)
class DirectSimulationResult:
    """Outcome of the round-for-round cluster execution."""

    beta_exp: np.ndarray
    alloc: np.ndarray
    local_rounds: int
    mpc_rounds: int
    peak_machine_words: int
    violations: list[str]


def simulate_local_rounds_on_cluster(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    epsilon: float,
    tau: int,
    *,
    alpha: float = 0.5,
    space_slack: float = 64.0,
    cluster: Optional[ColumnarCluster] = None,
) -> DirectSimulationResult:
    """Run τ exact Algorithm-1 rounds at 3 MPC rounds each.

    Returns the final β exponents and the last round's allocs, both of
    which match :class:`ProportionalRun` (tested).

    The numbers are a function of the communication pattern alone,
    which is what the per-record parity oracle
    (``tests/mpc_reference.py``) checks bit for bit:

    * rows stay in arrival order (the cluster's row-order contract),
      so per-vertex groups see their contributions in the sequence a
      per-record machine would fold them;
    * ``np.bincount`` accumulates *sequentially* in element order
      (``np.add.reduceat`` does not — it may re-associate — so every
      float segment sum here is a bincount); and
    * the shifted exponentials are looked up from a table of
      ``math.exp(d · log(1+ε))`` keyed by the integer shift ``d``.
    """
    caps = validate_capacities(graph, capacities)
    epsilon = check_fraction(epsilon, "epsilon")
    tau = check_positive_int(tau, "tau")
    log1p_eps = math.log1p(epsilon)

    if cluster is None:
        total_words = 8 * (graph.n_edges + graph.n_vertices) + 16
        cluster = cluster_for(
            total_words, n_for_alpha=max(2, graph.n_vertices), alpha=alpha,
            slack=space_slack, strict=True,
        )
    M = cluster.n_machines
    n_right = graph.n_right

    edge_batch = ColumnBatch(
        "edge",
        {
            "u": graph.edge_u.astype(np.int64),
            "v": graph.edge_v.astype(np.int64),
        },
        key="v",
    )
    vs = np.arange(n_right, dtype=np.int64)
    beta_batch = ColumnBatch(
        "beta", {"v": vs, "b": np.zeros(n_right, dtype=np.int64)}, key="v"
    )
    cap_batch = ColumnBatch(
        "cap", {"v": vs.copy(), "c": caps.astype(np.int64)}, key="v"
    )
    cluster.load_batches(
        [edge_batch, beta_batch, cap_batch],
        home=[edge_batch.cols["v"] % M, vs % M, vs % M],
    )

    exp_cache: dict[int, float] = {}
    alloc_final = np.zeros(n_right, dtype=np.float64)
    for _ in range(tau):
        # Exchange 1 (join): β flows onto co-located edges; edge records
        # leave annotated with the current exponent, keyed by u.
        eb, eh = cluster.rows("edge")
        bb, bh = cluster.rows("beta")
        cb, ch = cluster.rows("cap")
        beta_of = np.zeros(n_right, dtype=np.int64)
        beta_of[bb.cols["v"]] = bb.cols["b"]
        u, v = eb.cols["u"], eb.cols["v"]
        edge_b = ColumnBatch("edge_b", {"u": u, "v": v, "b": beta_of[v]})
        cluster.exchange_columnar(
            [
                Shipment(edge_b, eh, u % M),
                Shipment(bb, bh, bh),
                Shipment(cb, ch, ch),
            ],
            label="direct/join",
        )

        # Exchange 2 (normalize): per left vertex, proportional split;
        # contributions return keyed by v.  Rows are regrouped by the
        # *first appearance* of each u (a machine's group-by order), and
        # each segment fold runs in arrival order within its group.
        xb, xh = cluster.rows("edge_b")
        bb, bh = cluster.rows("beta")
        cb, ch = cluster.rows("cap")
        u, v, b = xb.cols["u"], xb.cols["v"], xb.cols["b"]
        if u.shape[0]:
            _, first_idx, inv = np.unique(u, return_index=True, return_inverse=True)
            order = np.argsort(first_idx[inv], kind="stable")
            u_s, v_s, b_s, home_s = u[order], v[order], b[order], xh[order]
            starts = np.flatnonzero(np.r_[True, u_s[1:] != u_s[:-1]])
            seg_len = np.diff(np.r_[starts, u_s.shape[0]])
            max_b = np.maximum.reduceat(b_s, starts)
            diff = b_s - np.repeat(max_b, seg_len)
            uniq_d, inv_d = np.unique(diff, return_inverse=True)
            table = np.array(
                [
                    exp_cache.setdefault(int(d), math.exp(int(d) * log1p_eps))
                    for d in uniq_d
                ]
            )
            w = table[inv_d]
            seg_id = np.repeat(np.arange(starts.shape[0]), seg_len)
            denom = np.bincount(seg_id, weights=w, minlength=starts.shape[0])
            x_vals = w / denom[seg_id]
        else:
            u_s = v_s = np.empty(0, dtype=np.int64)
            home_s = np.empty(0, dtype=np.int64)
            x_vals = np.empty(0, dtype=np.float64)
        x_batch = ColumnBatch("x", {"u": u_s, "v": v_s, "w": x_vals})
        cluster.exchange_columnar(
            [
                Shipment(bb, bh, bh),
                Shipment(cb, ch, ch),
                Shipment(x_batch, home_s, v_s % M),
            ],
            label="direct/normalize",
        )

        # Exchange 3 (aggregate): per right vertex, fold alloc and step
        # β; x records are consumed, edges are reconstituted at home.
        xb, xh = cluster.rows("x")
        bb, bh = cluster.rows("beta")
        cb, ch = cluster.rows("cap")
        alloc_vec = np.bincount(
            xb.cols["v"], weights=xb.cols["w"], minlength=n_right
        )
        cap_of = np.zeros(n_right, dtype=np.int64)
        cap_of[cb.cols["v"]] = cb.cols["c"]
        bv, b = bb.cols["v"], bb.cols["b"]
        a = alloc_vec[bv]
        c = cap_of[bv].astype(np.float64)
        inc = a <= c / (1.0 + epsilon)
        dec = ~inc & (a >= c * (1.0 + epsilon))
        beta_new = ColumnBatch(
            "beta",
            {"v": bv, "b": b + inc.astype(np.int64) - dec.astype(np.int64)},
            key="v",
        )
        edge_new = ColumnBatch(
            "edge", {"u": xb.cols["u"], "v": xb.cols["v"]}, key="v"
        )
        cluster.exchange_columnar(
            [
                Shipment(edge_new, xh, xh),
                Shipment(beta_new, bh, bh),
                Shipment(cb, ch, ch),
            ],
            label="direct/aggregate",
        )
        alloc_final = alloc_vec

    bb, _ = cluster.rows("beta")
    beta_exp = np.zeros(n_right, dtype=np.int64)
    beta_exp[bb.cols["v"]] = bb.cols["b"]
    return DirectSimulationResult(
        beta_exp=beta_exp,
        alloc=alloc_final,
        local_rounds=tau,
        mpc_rounds=cluster.rounds_executed,
        peak_machine_words=cluster.peak_machine_words(),
        violations=list(cluster.violations),
    )
