"""The repository benchmark: one command, three workloads, one gate.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``cold_solve`` - decode + default ``Engine.solve`` + report JSON on
  the Theorem-9 stress graph (the ``cli solve`` path, boost on);
* ``dynamic_churn`` - warm ``DynamicSession.step`` over the correlated
  flash-crowd scenario (the ``cli dynamic --no-boost`` path);
* ``service_warm`` - two client connections against ``cli serve
  --checkpoint-every-solve`` (the durable serving path).

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
every timing scaled to the reference host speed (``workloads.probe_ms``).
``--trace 1`` runs a traced pass with the layer wrappers of
``spans.py`` installed, then replays exactly the same requests with
nothing wrapped, and reports the per-layer split, the unattributed
remainder and the tracing overhead.  Every reply of every pass goes
through the correctness gate of ``workloads.gate``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and the metrics.  The line before it holds the details a
reader needs to trust the figures: provenance, the failure fraction,
the output digest, and (traced) the layer shares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "alloc_ratio": "ratio",
}
PER_LAYER = {
    "graphs.io.decode_ms": "ms",
    "core.fractional_ms": "ms",
    "core.sample_ms": "ms",
    "kernels.round_ms": "ms",
    "core.rounds": "count",
    "rounding.round_ms": "ms",
    "rounding.repair_ms": "ms",
    "rounding.repair_added_share": "ratio",
    "boosting.boost_ms": "ms",
    "boosting.layered_build_ms": "ms",
    "boosting.layered_builds": "count",
    "boosting.useful_ratio": "ratio",
    "graphs.validate_ms": "ms",
    "api.report_ms": "ms",
    "dynamic.apply_ms": "ms",
    "kernels.transplant_ms": "ms",
    "dynamic.remap_ms": "ms",
    "dynamic.layouts_reused_ratio": "ratio",
    "serve.solve_ms": "ms",
    "serve.snapshot_save_ms": "ms",
    "serve.snapshot_bytes": "bytes",
    "serve.handler_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.transport_ms": "ms",
    "trace.latency_p50_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold_solve", "dynamic_churn", "service_warm"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> Optional[str]:
    """HEAD of ``root``'s own git checkout, read from ``.git`` directly
    (``None`` outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    """Digest of every file under ``src/repro`` (identifies the code
    measured where no git commit is available)."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict[str, Any]:
    import numpy as np

    from benchmarks._scale import cpu_info
    from repro.kernels import get_backend

    return {
        "seed": seed,
        "cpu": cpu_info(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": get_backend().name,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(ROOT),
    }


def latencies(run) -> list[float]:
    return [r.latency_ms for r in run.replies if r.failure is None]


def summary(run) -> dict[str, Any]:
    """Details of one pass shared by both modes."""
    from benchmarks._scale import percentile
    from workloads import digest

    failures = [r for r in run.replies if r.failure is not None]
    ratios = [r.ratio for r in run.prefix if r.ratio is not None]
    lat = [r.latency_ms * r.scale for r in run.replies if r.failure is None]
    out: dict[str, Any] = {
        "requests": len(run.replies),
        "requests_per_client": run.counts,
        "failed": len(failures),
        "failed_frac": len(failures) / len(run.replies),
        "failures": sorted({r.failure for r in failures})[:5],
        "output_digest": digest(run.prefix),
        "digest_requests": len(run.prefix),
        "alloc_ratio_samples": len(ratios),
        "window_s": run.window_s,
        "ref_window_s": run.ref_window_s,
        "probe_ms_median": statistics.median(run.probes_ms),
    }
    if len(lat) >= 100:
        # Only where at least ten samples lie beyond it.
        out["latency_p90_ms"] = percentile(lat, 90)
    out.update(run.extra)
    return out


def measure(workload, seed: int, seconds: float):
    """``--trace 0``: set up several times (the median is ``setup_s``),
    then one measured pass on the last set-up.  Every timing is at the
    reference host speed; the detail line holds the wall-clock ones."""
    from workloads import probe_ms, scale_between

    setups, ref_setups = [], []
    before = probe_ms()
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        after = probe_ms()
        ref_setups.append(setups[-1] * scale_between(before, after))
        before = after
        if i < SETUP_REPEATS - 1:
            workload.close(state)
    try:
        run = workload.run(state, seconds)
    finally:
        workload.close(state)
    lat = latencies(run)
    ok = [r for r in run.replies if r.failure is None]
    ref_lat = [r.latency_ms * r.scale for r in ok]
    ratios = [r.ratio for r in run.prefix if r.ratio is not None]
    metrics = {
        "solves_per_s": len(ok) / run.ref_window_s,
        "latency_p50_ms": statistics.median(ref_lat) if ref_lat else 0.0,
        "setup_s": statistics.median(ref_setups),
        "peak_rss_mb": run.peak_rss_mb,
        "alloc_ratio": statistics.fmean(ratios) if ratios else 0.0,
    }
    detail = summary(run)
    detail["setup_s_samples"] = setups
    detail["wall"] = {
        "solves_per_s": len(ok) / run.window_s,
        "latency_p50_ms": statistics.median(lat) if lat else 0.0,
        "setup_s": statistics.median(setups),
    }
    return run.replies, metrics, detail, True


def measure_traced(workload, seed: int, seconds: float):
    """``--trace 1``: a traced pass, then an untraced replay of the
    same requests; the per-layer split comes from the traced pass."""
    import spans
    from workloads import digest

    recorder = spans.Recorder()
    state = workload.setup(seed, traced=True)
    try:
        with recorder.installed():
            traced = workload.run(state, seconds, recorder)
    finally:
        workload.close(state)
    leftover = spans.leftover_wrappers()
    recorded = recorder.spans + workload.process_spans(state)

    state = workload.setup(seed)
    try:
        plain = workload.run(state, seconds, counts=traced.counts)
    finally:
        workload.close(state)

    ok_traced = [r for r in traced.replies if r.failure is None]
    latency_ms = {r.rid: r.latency_ms for r in ok_traced}
    final_size = {r.rid: r.size for r in ok_traced}
    metrics = spans.layer_metrics(
        spans.per_request(recorded, latency_ms), latency_ms, final_size
    )
    traced_p50 = statistics.median(latency_ms.values()) if latency_ms else 0.0
    plain_lat = latencies(plain)
    plain_p50 = statistics.median(plain_lat) if plain_lat else 0.0
    metrics["trace.latency_p50_ms"] = traced_p50
    metrics["trace.overhead_ms"] = traced_p50 - plain_p50
    metrics["dynamic.layouts_reused_ratio"] = traced.extra.get("layouts_reused_ratio", 0.0)

    full_match = digest(traced.replies) == digest(plain.replies)
    detail = summary(traced)
    detail.update(
        {
            "untraced_latency_p50_ms": plain_p50,
            "untraced_output_digest": digest(plain.prefix),
            "traced_equals_untraced": full_match,
            "wrappers_left_installed": leftover,
            "spans": len(recorded),
            # Each layer's median as a share of the traced median latency.
            "layer_share_of_latency_p50": {
                name: metrics[name] / traced_p50
                for name in spans.TIME_LAYERS + (
                    "serve.handler_ms", "serve.transport_ms", "trace.unattributed_ms",
                )
                if traced_p50 and metrics[name]
            },
        }
    )
    out = Path("perfbench") / "out"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"spans-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "latency_ms": latency_ms,
                "spans": [s.as_dict() for s in recorded],
            },
            f,
        )
    # The replay repeats every traced request, so the totals count both.
    return traced.replies + plain.replies, metrics, detail, full_match and not leftover


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    replies, values, detail, correct = measure_fn(workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(r.failure is not None for r in replies)
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        **detail,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": len(replies),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
