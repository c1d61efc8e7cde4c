"""CLI coverage: generate → info → solve round trips, the batch
subcommand, engine-selection flags, and failure exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.graphs.generators import union_of_forests
from repro.graphs.io import save_instance


@pytest.fixture
def instance_file(tmp_path):
    inst = union_of_forests(25, 20, 2, capacity=2, seed=1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    return path


# ----------------------------------------------------------------------
# Round trip: generate → info → solve through a tmp directory
# ----------------------------------------------------------------------

def test_cli_round_trip(tmp_path, capsys):
    path = tmp_path / "roundtrip.json"
    assert cli_main([
        "generate", "union_of_forests", "--out", str(path),
        "--n-left", "30", "--n-right", "24", "--k", "2", "--seed", "3",
    ]) == 0
    assert path.exists()
    assert "forests(k=2)" in capsys.readouterr().out

    assert cli_main(["info", str(path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_left"] == 30
    assert info["n_right"] == 24
    assert info["degeneracy"] >= 1

    assert cli_main(["solve", str(path), "--epsilon", "0.2", "--no-boost"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["instance"]["n_left"] == 30
    assert out["result"]["final_size"] >= 1


def test_cli_solve_with_opt(instance_file, capsys):
    assert cli_main(["solve", str(instance_file), "--epsilon", "0.2", "--with-opt"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["final_size"] >= 1
    assert out["result"]["ratio"] >= 1.0


def test_cli_solve_deterministic(instance_file, capsys):
    assert cli_main(["solve", str(instance_file), "--seed", "5", "--no-boost"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli_main(["solve", str(instance_file), "--seed", "5", "--no-boost"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_cli_generate_unknown_family(tmp_path, capsys):
    assert cli_main(["generate", "nope", "--out", str(tmp_path / "x.json")]) == 2


# ----------------------------------------------------------------------
# Failure exit codes
# ----------------------------------------------------------------------

def test_cli_solve_missing_instance(tmp_path, capsys):
    assert cli_main(["solve", str(tmp_path / "nothing.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_info_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert cli_main(["info", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_solve_wrong_format(tmp_path, capsys):
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    assert cli_main(["solve", str(bad)]) == 2
    assert "malformed instance file" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Engine-selection flags
# ----------------------------------------------------------------------

def test_cli_backend_flag(instance_file, capsys):
    from repro.kernels import get_backend, use_backend

    # The flag installs process-wide; the scope restores the backend.
    with use_backend(get_backend()):
        assert cli_main([
            "solve", str(instance_file), "--no-boost", "--backend", "reference",
        ]) == 0
        assert type(get_backend()).__name__ == "ReferenceBackend"
    json.loads(capsys.readouterr().out)


def test_cli_unknown_backend(instance_file, capsys):
    assert cli_main(["solve", str(instance_file), "--backend", "nope"]) == 2
    assert "unknown kernel backend" in capsys.readouterr().err


# ----------------------------------------------------------------------
# batch subcommand
# ----------------------------------------------------------------------

def _write_requests(tmp_path, rows):
    path = tmp_path / "requests.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def test_cli_batch_round_trip(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [
        {"seed": 1},
        {"capacity_updates": {"0": 3}},
        {"epsilon": 0.15, "warm": False, "tag": "cold-sweep"},
    ])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
        "--no-boost", "--workers", "2", "--seed", "4",
    ]) == 0
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.strip().splitlines()]
    assert [row["request"] for row in rows] == [0, 1, 2]
    assert all(row["final_size"] >= 1 for row in rows)
    assert rows[2]["tag"] == "cold-sweep"
    # The first request primes the resident session (cold), the rest
    # warm-start unless they opted out (request 2 has warm=false).
    assert [row["warm_start"] for row in rows] == [False, True, False]
    stats = json.loads(out.err.strip().splitlines()[-1])["session_stats"]
    assert stats["solves"] == 3  # every executed request is counted
    assert stats["warm_solves"] == 1


def test_cli_batch_deterministic(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{}, {}, {}])
    args = [
        "batch", str(requests), "--instance", str(instance_file),
        "--no-boost", "--seed", "9", "--workers", "1",
    ]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args + ["--workers", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_batch_malformed_request(tmp_path, instance_file, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"seed": 1}\nnot json\n')
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_batch_line_numbers_count_blank_lines(tmp_path, instance_file, capsys):
    requests = tmp_path / "requests.jsonl"
    requests.write_text('\n{"seed": 1}\n\nnot json\n')
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "line 4" in capsys.readouterr().err


def test_cli_batch_non_mapping_capacity_updates(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{"capacity_updates": [1, 2]}])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "malformed request on line 1" in capsys.readouterr().err


def test_cli_batch_unknown_field(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{"epsilonn": 0.1}])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "unknown request fields" in capsys.readouterr().err


def test_cli_batch_out_of_range_capacity_update(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{"capacity_updates": {"99999": 3}}])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "invalid request" in capsys.readouterr().err


def test_cli_batch_out_of_range_request_rejected_before_any_solve(
    tmp_path, instance_file, capsys, monkeypatch
):
    import repro.serve.session as session_module

    def no_solve(*args, **kwargs):
        raise AssertionError("a request was solved before the file was parsed")

    monkeypatch.setattr(session_module, "solve_allocation", no_solve)
    for bad, field in (
        ({"rounding_copies": 0}, "'rounding_copies'"),
        ({"seed": -2}, "'seed'"),
        ({"capacity_updates": {"2": 0}}, "capacity_updates['2']"),
    ):
        requests = _write_requests(tmp_path, [{"seed": 1}, {}, bad])
        assert cli_main([
            "batch", str(requests), "--instance", str(instance_file),
        ]) == 2
        err = capsys.readouterr().err
        assert "malformed request on line 3" in err
        assert field in err


def test_cli_batch_missing_request_file(tmp_path, instance_file, capsys):
    assert cli_main([
        "batch", str(tmp_path / "none.jsonl"), "--instance", str(instance_file),
    ]) == 2
    assert "cannot read request file" in capsys.readouterr().err


def test_cli_batch_bad_session_epsilon(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{}])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
        "--epsilon", "0.9",
    ]) == 2
    assert "epsilon" in capsys.readouterr().err


def test_cli_batch_out_of_range_epsilon_request(tmp_path, instance_file, capsys):
    requests = _write_requests(tmp_path, [{"epsilon": 0.9}])
    assert cli_main([
        "batch", str(requests), "--instance", str(instance_file),
    ]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_batch_missing_instance(tmp_path, capsys):
    requests = _write_requests(tmp_path, [{}])
    assert cli_main([
        "batch", str(requests), "--instance", str(tmp_path / "none.json"),
    ]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["batch", "{requests}", "--instance", "{instance}",
          "--workers", "-3"], "--workers"),
        (["batch", "{requests}", "--instance", "{instance}",
          "--shard-workers", "0"], "--shard-workers"),
        (["dynamic", "--instance", "{instance}", "--scenario",
          "diurnal_wave", "--shard-workers", "0"], "--shard-workers"),
        (["sweep", "run", "--spec", "{requests}", "--out", "{out}",
          "--workers", "0"], "--workers"),
        (["batch", "{requests}", "--instance", "{instance}",
          "--workers", "two"], "--workers"),
    ],
)
def test_cli_worker_count_below_one_is_a_flag_error(
    tmp_path, instance_file, capsys, argv, flag
):
    paths = {
        "requests": str(_write_requests(tmp_path, [{}])),
        "instance": str(instance_file),
        "out": str(tmp_path / "sweep"),
    }
    with pytest.raises(SystemExit) as exc:
        cli_main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
