"""Self-tests of the benchmark.

Run from the repository root (the file is outside the tier-1 suite on
purpose: the smoke runs take about a minute)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402


def run_bench(workload: str, seed: int, trace: int, *, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def parsed(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request):
    """A smoke-size untraced and traced run of one workload, same seed."""
    return parsed(run_bench(request.param, 7, 0)), parsed(run_bench(request.param, 7, 1))


def test_smoke_run_completes_without_failures(smoke):
    for detail, result in smoke:
        assert result["correct"] is True
        assert result["failed"] == 0 and detail["failed_frac"] == 0.0
        assert result["attempted"] >= detail["digest_requests"] >= 1
        assert detail["alloc_ratio_samples"] == detail["digest_requests"]


def test_emitted_metric_names_match_benchmark_json(smoke):
    (_, plain), (_, traced) = smoke
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == declared
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_traced_digest_equals_untraced_digest(smoke):
    (plain_detail, _), (traced_detail, _) = smoke
    assert traced_detail["traced_equals_untraced"] is True
    assert traced_detail["output_digest"] == traced_detail["untraced_output_digest"]
    assert traced_detail["output_digest"] == plain_detail["output_digest"]


def test_no_wrapper_installed_after_traced_run(smoke):
    _, (traced_detail, _) = smoke
    assert traced_detail["wrappers_left_installed"] == []


def test_recorder_puts_every_original_back():
    targets = [(spans._resolve(o), a) for o, a, *_ in spans.TARGETS + spans.PROBES]
    before = [spans._raw(obj, attr) for obj, attr in targets]
    recorder = spans.Recorder()
    with recorder.installed():
        assert len(spans.leftover_wrappers()) == len(targets)
    assert spans.leftover_wrappers() == []
    assert all(spans._raw(obj, attr) is raw for (obj, attr), raw in zip(targets, before))


def test_recorder_attributes_nested_calls_to_their_request():
    from repro.graphs.capacities import validate_integral_allocation
    from repro.graphs.generators import slow_spread_instance
    from repro.rounding import repair

    inst = slow_spread_instance(4, width=2)
    empty = np.zeros(inst.graph.n_edges, dtype=bool)
    recorder = spans.Recorder()
    with recorder.installed():
        import repro.core.pipeline as pipeline

        pipeline.greedy_fill(inst.graph, inst.capacities, empty)  # outside a request
        with recorder.request("r0"):
            mask = pipeline.greedy_fill(inst.graph, inst.capacities, empty)
    assert repair.validate_integral_allocation is validate_integral_allocation
    by_name = {s.layer: s for s in recorder.spans}
    assert {s.rid for s in recorder.spans} == {"r0"}
    fill, check = by_name["rounding.repair_ms"], by_name["graphs.validate_ms"]
    assert check.parent == fill.sid and fill.parent is None
    assert fill.attrs["added"] == int(mask.sum()) > 0
    latency = {"r0": (fill.t1 - fill.t0) / 1e6 + 1.0}
    row = spans.per_request(recorder.spans, latency)["r0"]
    self_ms = (fill.t1 - fill.t0 - (check.t1 - check.t0)) / 1e6
    assert row["ms"]["rounding.repair_ms"] == pytest.approx(self_ms)
    assert latency["r0"] - row["top_ms"] == pytest.approx(1.0)


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("cold_solve", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
