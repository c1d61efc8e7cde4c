"""Graph exponentiation on the MPC cluster (LW10 / GU19).

To simulate ``B`` LOCAL rounds in one machine-local step, every vertex
must hold its radius-``B`` ball of the (sparsified) communication
graph.  Graph exponentiation collects those balls by doubling: after
iteration ``i`` every vertex knows its radius-``2^i`` ball; joining
each vertex's ball with the balls of its frontier vertices doubles the
radius.  ``⌈log₂ B⌉`` joins suffice — the ``log B`` factor inside
Theorem 10's ``O(√log λ · log log λ)``.

Representation: one ``ball`` column batch — a center column ``v`` and
a ragged payload of flattened ``(a, b)`` edge pairs, sorted — so a
ball costs ``2 + 2·|edges|`` words.  The join is executed as two
accounted exchanges per doubling (request shipping + response
shipping), which is the standard constant-round join implementation;
the per-ball frontier and truncation are machine-local compute.

This is the faithful-mode path; it is exercised on small sparsified
graphs where ball volume ``d^B`` fits in a machine (DESIGN.md §5).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.mpc.columnar import ColumnarCluster, Shipment
from repro.mpc.columns import ColumnBatch, ragged_from_rows

__all__ = [
    "collect_balls",
    "ball_vertices",
    "ball_record_words",
    "expected_doubling_rounds",
]

BALL_TAG = "ball"


def ball_record_words(edges) -> int:
    """Stored words of one collected ball record: 1 (tag) + 1 (center)
    + 2 per edge — :func:`_ball_batch`'s per-row cost.  The adaptive
    throttling layer uses this to turn ``collect_balls`` output into
    payload-size distributions."""
    return 2 + 2 * len(edges)


def expected_doubling_rounds(radius: int) -> int:
    """Number of doubling joins to reach ``radius``: ``⌈log₂ radius⌉``
    (each join is 2 exchange rounds in this implementation)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return max(0, math.ceil(math.log2(radius)))


def ball_vertices(edges: Iterable[tuple[int, int]], center: int) -> set[int]:
    """Vertex set of a ball record (center always included)."""
    verts = {center}
    for a, b in edges:
        verts.add(a)
        verts.add(b)
    return verts


def _frontier(edges: tuple[tuple[int, int], ...], center: int, radius: int) -> set[int]:
    """Vertices at distance exactly ``radius`` inside the ball edges."""
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {center: 0}
    frontier = {center}
    for d in range(1, radius + 1):
        nxt = set()
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.add(w)
        frontier = nxt
    return {v for v, d in dist.items() if d == radius}


def _truncate(edges: set[tuple[int, int]], center: int, radius: int) -> tuple[tuple[int, int], ...]:
    """Keep only edges on paths of length ≤ radius from the center."""
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    dist = {center: 0}
    frontier = {center}
    d = 0
    while frontier and d < radius:
        d += 1
        nxt = set()
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.add(w)
        frontier = nxt
    kept = tuple(
        sorted(
            (a, b)
            for a, b in edges
            if a in dist and b in dist and min(dist[a], dist[b]) <= radius - 1
        )
    )
    return kept


def _ball_batch(centers: np.ndarray, edge_rows: list) -> ColumnBatch:
    """Balls as a ragged batch: center column + flattened edge pairs.

    Per-record words = 1 (tag) + 1 (center) + 2·|edges|.
    """
    offsets, payload = ragged_from_rows(
        [[c for pair in row for c in pair] for row in edge_rows]
    )
    return ColumnBatch(BALL_TAG, {"v": centers}, offsets, payload, key="v")


def _ball_pairs(batch: ColumnBatch, i: int) -> tuple[tuple[int, int], ...]:
    flat = batch.payload_row(i).tolist()
    return tuple(zip(flat[0::2], flat[1::2]))


def collect_balls(
    cluster: ColumnarCluster,
    n_vertices: int,
    edge_list: list[tuple[int, int]],
    radius: int,
    *,
    owner_of_vertex=None,
) -> tuple[dict[int, tuple[tuple[int, int], ...]], int]:
    """Collect the radius-``radius`` ball of every vertex.

    The cluster is loaded with radius-1 balls (each vertex's incident
    edges), then doubled ``⌈log₂ radius⌉`` times.  Each doubling costs
    two exchange rounds: frontier-keyed requests, then ball responses.

    Returns ``(balls, rounds_used)`` with ``balls[v]`` an edge tuple.
    ``owner_of_vertex`` overrides the vertex→machine placement (default
    ``v mod M``).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    n_machines = cluster.n_machines
    owner = owner_of_vertex or (lambda v: v % n_machines)

    # Radius-1 balls from the raw edges (input loading, costs no rounds).
    incident: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for a, b in edge_list:
        incident[a].add((a, b))
        incident[b].add((a, b))
    centers = np.arange(n_vertices, dtype=np.int64)
    edge_rows = [tuple(sorted(incident.get(v, set()))) for v in range(n_vertices)]
    home = np.array([owner(v) % n_machines for v in range(n_vertices)], dtype=np.int64)
    cluster.load_batches([_ball_batch(centers, edge_rows)], home=[home])

    rounds_used = 0
    current_radius = 1
    while current_radius < radius:
        target = min(radius, 2 * current_radius)
        cur = current_radius

        # Exchange A: frontier-keyed requests; balls persist in place.
        balls, ball_home = cluster.rows(BALL_TAG)
        req_w: list[int] = []
        req_center: list[int] = []
        req_src: list[int] = []
        for i in range(balls.n_records):
            center = int(balls.cols["v"][i])
            for w in _frontier(_ball_pairs(balls, i), center, cur):
                if w != center:
                    req_w.append(w)
                    req_center.append(center)
                    req_src.append(int(ball_home[i]))
        ships = cluster.keep_all_shipments()
        if req_w:
            ships.append(
                Shipment(
                    ColumnBatch(
                        "req",
                        {
                            "w": np.asarray(req_w, dtype=np.int64),
                            "center": np.asarray(req_center, dtype=np.int64),
                        },
                    ),
                    np.asarray(req_src, dtype=np.int64),
                    np.array([owner(w) % n_machines for w in req_w], dtype=np.int64),
                )
            )
        cluster.exchange_columnar(ships, label="exponentiation/request")
        rounds_used += 1

        # Exchange B: owners answer with the requested balls; requests
        # are consumed.  Each request is served from its owner machine,
        # where the ball is resident by construction.
        balls, ball_home = cluster.rows(BALL_TAG)
        local_balls = {
            int(balls.cols["v"][i]): _ball_pairs(balls, i)
            for i in range(balls.n_records)
        }
        ships = cluster.keep_all_shipments(exclude=("req",))
        if cluster.has_kind("req"):
            reqs, req_home = cluster.rows("req")
            resp_center = reqs.cols["center"]
            resp_rows = [
                local_balls.get(int(w), ()) for w in reqs.cols["w"]
            ]
            offsets, payload = ragged_from_rows(
                [[c for pair in row for c in pair] for row in resp_rows]
            )
            ships.append(
                Shipment(
                    ColumnBatch("resp", {"center": resp_center}, offsets, payload),
                    req_home,
                    np.array(
                        [owner(int(c)) % n_machines for c in resp_center],
                        dtype=np.int64,
                    ),
                )
            )
        cluster.exchange_columnar(ships, label="exponentiation/response")
        rounds_used += 1

        # Local merge: union responses into balls, truncate to target.
        balls, ball_home = cluster.rows(BALL_TAG)
        extras: dict[int, list] = defaultdict(list)
        if cluster.has_kind("resp"):
            resp, _ = cluster.rows("resp")
            for i in range(resp.n_records):
                extras[int(resp.cols["center"][i])].append(_ball_pairs(resp, i))
            cluster.drop_kind("resp")
        new_rows = []
        for i in range(balls.n_records):
            center = int(balls.cols["v"][i])
            edges = set(_ball_pairs(balls, i))
            for extra in extras.get(center, []):
                edges.update(extra)
            new_rows.append(_truncate(edges, center, target))
        cluster.replace_kind(
            BALL_TAG, _ball_batch(balls.cols["v"], new_rows), ball_home
        )
        current_radius = target

    balls, _ = cluster.rows(BALL_TAG)
    out = {
        int(balls.cols["v"][i]): _ball_pairs(balls, i)
        for i in range(balls.n_records)
    }
    return out, rounds_used
