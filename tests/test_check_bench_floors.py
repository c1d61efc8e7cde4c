"""The benchmark bar gate (benchmarks/check_bench_floors.py).

The tests are generated from the bars the benches declare (``BARS`` in
each ``benchmarks/bench_*.py``) and the committed payloads: each one
copies the committed ``BENCH_*.json`` tree and changes one thing, so a
newly declared bar gets its tests with no new test code.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))
from benchmarks.check_bench_floors import (
    MISSING,
    declared_bars,
    main,
    matches,
    run_checks,
)

DECLARED = declared_bars()


def _bar_id(name: str, path: str, bar) -> str:
    stem = name[len("BENCH_"):-len(".json")]
    if bar.ceiling is not None:
        return f"{stem}:{path}<={bar.ceiling}"
    return f"{stem}:{path}" if bar.floor is True else f"{stem}:{path}>={bar.floor}"


def _applicable_bars():
    """One param per concrete bar (``*`` expanded) that applies to the
    committed payload."""
    params = []
    for name, bars in DECLARED.items():
        payload = json.loads((REPO / name).read_text())
        for bar in bars:
            if bar.when is None or bar.when(payload):
                for path, _ in matches(payload, bar.path):
                    params.append(
                        pytest.param(name, bar, path, id=_bar_id(name, path, bar))
                    )
    return params


APPLICABLE = _applicable_bars()


@pytest.fixture
def tree(tmp_path) -> Path:
    """A copy of every committed payload the benches declare bars for."""
    for name in DECLARED:
        shutil.copy(REPO / name, tmp_path / name)
    return tmp_path


def _edit(root: Path, name: str, path: str, value=None, *, delete=False) -> None:
    """Set (or delete) the value at a concrete dotted ``path``."""
    payload = json.loads((root / name).read_text())
    *parents, leaf = path.split(".")
    node = payload
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if delete:
        del node[leaf]
    else:
        node[int(leaf) if isinstance(node, list) else leaf] = value
    (root / name).write_text(json.dumps(payload))


def _past_bound(bar):
    if bar.floor is True:
        return False
    if bar.ceiling is not None:
        return bar.ceiling + 1
    return bar.floor - 0.01


def _names_only(failures: list[str], name: str, path: str) -> bool:
    return bool(failures) and all(f.startswith(f"{name} {path}: ") for f in failures)


@pytest.mark.parametrize("name, bar, path", APPLICABLE)
def test_bar_past_its_bound_fails(tree, name, bar, path):
    _edit(tree, name, path, _past_bound(bar))
    assert _names_only(run_checks(tree)[1], name, path)


@pytest.mark.parametrize("name, bar, path", APPLICABLE)
def test_missing_field_fails(tree, name, bar, path):
    _edit(tree, name, path, delete=True)
    failures = run_checks(tree)[1]
    assert _names_only(failures, name, path)
    assert all(": missing (" in f for f in failures)


def test_paths_match_every_row_and_name_breaks():
    payload = {"rows": [{"x": 1}, {"x": 2}], "by": {"a": {"x": 3}, "b": {}}}
    assert list(matches(payload, "rows.*.x")) == [("rows.0.x", 1), ("rows.1.x", 2)]
    assert list(matches(payload, "rows.-1.x")) == [("rows.-1.x", 2)]
    assert list(matches(payload, "by.*.x")) == [("by.a.x", 3), ("by.b.x", MISSING)]
    assert list(matches(payload, "rows.2.x")) == [("rows.2", MISSING)]
    assert list(matches({"by": {}}, "by.*.x")) == [("by.*", MISSING)]


def test_checks_cover_every_committed_payload():
    # BENCH_<stem>.json comes from bench_<stem>.py, and every committed
    # payload has a bench declaring its bars.
    committed = {p.name for p in REPO.glob("BENCH_*.json")}
    assert set(DECLARED) == committed
    assert len(committed) == 7
    # Each bar is bounded one way: a floor or a ceiling.
    bars = [bar for bars in DECLARED.values() for bar in bars]
    assert all((bar.floor is None) != (bar.ceiling is None) for bar in bars)


def test_all_bars_held_passes(tree, capsys):
    assert run_checks(tree)[1] == []
    assert main(tree) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "every applicable bar holds"
    bar_lines = lines[:-1]
    assert len(bar_lines) == sum(
        len(list(matches(json.loads((tree / name).read_text()), bar.path)))
        for name, bars in DECLARED.items()
        for bar in bars
    )
    assert all(line.endswith((") met", ") not applicable")) for line in bar_lines)


def test_repo_committed_payloads_pass():
    # The actual committed payloads must hold their bars right now.
    assert run_checks()[1] == []


def test_missing_required_file_fails(tree):
    for name in DECLARED:
        (tree / name).unlink()
    assert sorted(run_checks(tree)[1]) == sorted(f"{n}: missing" for n in DECLARED)
    assert main(tree) == 1


def test_malformed_json_fails_without_crashing(tree):
    for name in DECLARED:
        (tree / name).write_text("{not json")
    failures = run_checks(tree)[1]
    assert len(failures) == len(DECLARED)
    assert all(
        f.startswith(f"{name}: not valid JSON")
        for f, name in zip(failures, DECLARED)
    )


def test_missed_dynamic_scenario_is_named(tree):
    # Every recorded scenario is held to the floor, not only two of them.
    path = "scenarios.adversarial_churn.warm_speedup_over_cold"
    _edit(tree, "BENCH_dynamic.json", path, 1.1)
    assert run_checks(tree)[1] == [f"BENCH_dynamic.json {path}: 1.1 (floor 3.0) MISSED"]


def test_kernels_regression_fails(tree):
    # A full-scale payload with a usable native backend is held to the
    # native floors, not the pre-native 1.0.
    paths = ["largest_instance_speedup", "round_kernel.-1.native_speedup_vs_reference"]
    for path in paths:
        _edit(tree, "BENCH_kernels.json", path, 4.9)
    assert run_checks(tree)[1] == [
        f"BENCH_kernels.json {path}: 4.9 (floor 5.0) MISSED" for path in paths
    ]


def _sharding_at(root: Path, cores: int, speedup: float) -> None:
    _edit(root, "BENCH_sharding.json", "cpu.logical_cores", cores)
    _edit(root, "BENCH_sharding.json", "scaling_bar.speedup_4_workers", speedup)


def test_sharding_not_applicable_is_not_a_regression(tree):
    # Four workers on two cores cannot reach 2x, let alone the floor.
    _sharding_at(tree, cores=2, speedup=0.99)
    assert run_checks(tree)[1] == []


def test_sharding_applicable_but_missed_fails(tree):
    _sharding_at(tree, cores=4, speedup=0.99)
    assert run_checks(tree)[1] == [
        "BENCH_sharding.json scaling_bar.speedup_4_workers: 0.99 (floor 2.5) MISSED"
    ]


def test_sharding_ambiguous_applicability_fails(tree):
    # Without the host's core count the gate cannot tell; it says so.
    _edit(tree, "BENCH_sharding.json", "cpu", delete=True)
    failures = run_checks(tree)[1]
    assert len(failures) == 1
    assert failures[0].startswith(
        "BENCH_sharding.json scaling_bar.speedup_4_workers: cannot tell"
    )


def _fresh_kernels_smoke(fresh: Path, **changes) -> None:
    """A kernels payload shaped like a smoke run's: the full-scale
    floors, which 1.5 would miss, do not apply to it."""
    fresh.mkdir()
    shutil.copy(REPO / "BENCH_kernels.json", fresh / "BENCH_kernels.json")
    _edit(fresh, "BENCH_kernels.json", "scale", "smoke")
    changes.setdefault("largest_instance_speedup", 1.5)
    for path, value in changes.items():
        _edit(fresh, "BENCH_kernels.json", path, value)


def test_diff_fresh_regression_fails(tmp_path):
    fresh = tmp_path / "fresh"
    _fresh_kernels_smoke(fresh, optimized_beats_seed=False)
    lines, failures = run_checks(fresh, fresh=True)
    assert failures == [
        "BENCH_kernels.json optimized_beats_seed: false (floor true) MISSED"
    ]
    assert "BENCH_serving.json: skipped, not in this run" in lines
    assert main(argv=["--diff", str(fresh)]) == 1


def test_diff_fresh_pass_and_empty_fresh_fails(tmp_path):
    fresh = tmp_path / "fresh"
    _fresh_kernels_smoke(fresh)
    lines, failures = run_checks(fresh, fresh=True)
    assert failures == []
    compared = [line for line in lines if line.endswith(") met")]
    assert compared == [
        "BENCH_kernels.json optimized_beats_seed: true (floor true) met",
        "BENCH_kernels.json largest_instance_speedup: 1.5 (floor 1.0) met",
    ]
    assert main(argv=["--diff", str(fresh)]) == 0
    # A fresh dir with nothing to compare must not vacuously pass.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_checks(empty, fresh=True)[1] == [
        f"no applicable bar to compare under {empty}"
    ]
    assert main(argv=["--diff", str(empty)]) == 1


def test_diff_not_applicable_fresh_bar_is_skipped(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(REPO / "BENCH_sharding.json", fresh / "BENCH_sharding.json")
    _sharding_at(fresh, cores=1, speedup=0.8)
    lines, failures = run_checks(fresh, fresh=True)
    assert failures == []
    assert (
        "BENCH_sharding.json scaling_bar.speedup_4_workers: 0.8 (floor 2.5) "
        "not applicable" in lines
    )
