"""Sharded serving: a multi-process fleet, one process pool per shard.

The thread-pool batch path (DESIGN.md §8) is GIL-bound; this example
walks the process tier (DESIGN.md §12): route requests by
instance-content hash to shard workers that keep warm sessions, send
each instance to its shard once, and get back reports that are
bit-identical to the thread path — at any worker count.

Run:  python examples/sharded_batch.py
"""

from __future__ import annotations

from repro.api import Engine, SolverConfig
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.serve import ShardedExecutor, SolveRequest, instance_hash


def main() -> None:
    # A small multi-tenant fleet: two structurally distinct instances,
    # so content-hash routing actually has something to separate.
    tenant_a = slow_spread_instance(12, width=16)
    tenant_b = union_of_forests(n_left=120, n_right=80, k=3, capacity=2, seed=7)
    print(f"tenant A: {tenant_a.name}  hash={instance_hash(tenant_a)[:12]}")
    print(f"tenant B: {tenant_b.name}  hash={instance_hash(tenant_b)[:12]}")

    # Requests round-robin the tenants; seeds are assigned per
    # position before routing, which is what makes executor choice
    # invisible in the results.
    instances = [tenant_a, tenant_b] * 3
    requests = [
        SolveRequest(capacity_updates={i % 4: 2}, epsilon=0.2, boost=False)
        for i in range(len(instances))
    ]

    config = SolverConfig(epsilon=0.2, boost=False)

    # 1) The Engine route: executor="process" serves the batch through
    #    an engine-owned resident shard fleet.  Same stream, same
    #    seed, different executor — bit-identical reports (seeds are
    #    assigned per request position before routing).
    with Engine(config) as engine:
        threaded = engine.batch(tenant_a, requests, seed=0)
        sharded = engine.batch(tenant_a, requests, seed=0,
                               executor="process", workers=2)
        assert [r.to_dict() for r in sharded] == \
            [r.to_dict() for r in threaded], "executors must agree"
        print(f"engine batch  : {len(sharded)} requests over 2 workers, "
              f"bit-identical to the thread path")

        # The fleet stays warm between batches on an activated engine,
        # and a sequence of instances fans out multi-tenant (the
        # thread executor takes one session; tenant fan-out is what
        # the process tier is for).
        multi = engine.batch(instances, requests, seed=0,
                             executor="process", workers=2)
        assert all(r.certified for r in multi)
        warm = [r.meta.get("warm_start") for r in multi]
        print(f"tenant fan-out: warm_start per request = {warm}")

    # 2) The explicit executor, for callers that want the knobs:
    #    routing, per-request latency, fleet stats.
    with ShardedExecutor(2, config=config) as executor:
        print(f"routing       : A -> shard {executor.shard_of(tenant_a)}, "
              f"B -> shard {executor.shard_of(tenant_b)}")
        reports = executor.run_batch(instances, requests, seed=0)
        lat_ms = [f"{1000 * s:.1f}" for s in executor.last_latencies]
        print(f"direct batch  : sizes={[r.size for r in reports]}")
        print(f"worker latency: {lat_ms} ms per request")
        stats = executor.stats()
        print(f"fleet stats   : restarts={stats['restarts']}, "
              f"published={stats['published_instances']}")
    # Context exit shut every shard's pool down and joined its worker.
    print("fleet closed  : every worker joined")


if __name__ == "__main__":
    main()
