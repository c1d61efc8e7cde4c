"""Benchmark scale selection, host CPU topology and bar declarations,
importable without pytest.

Shared by ``benchmarks/conftest.py`` (the pytest-benchmark path) and
the ``bench_*.py`` script modes.  A script that writes
``BENCH_<stem>.json`` declares that payload's acceptance bars once, as
a module-level ``BARS`` tuple of :class:`Bar`;
``benchmarks/check_bench_floors.py`` reads every such declaration.
"""

from __future__ import annotations

import argparse
import json
import os
import re
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = [
    "Bar",
    "bench_scale",
    "cpu_info",
    "percentile",
    "stamp_payload",
    "write_bench_payload",
    "bench_script_main",
    "SCHEMA_VERSION",
]

# Version of the BENCH_*.json payload envelope: every payload carries
# ``schema_version`` + ``cpu`` (stamped by write_bench_payload) so
# downstream consumers can reject formats they don't understand
# instead of misreading them.
SCHEMA_VERSION = 1

REPO_ROOT = Path(__file__).resolve().parents[1]


class Bar(NamedTuple):
    """One acceptance bar of a bench payload.

    ``path`` is dotted into the payload: ``*`` matches every key of a
    mapping or row of a list, and an integer picks one row (``-1`` is
    the last).  ``floor`` is the least passing value, or ``True`` for a
    flag that must hold; a bar with a ``ceiling`` instead passes at
    most that value.  ``when(payload)`` says whether the bar applies
    (scale, a usable backend, host cores); ``None`` means always.
    """

    path: str
    floor: float | bool | None = None
    when: Callable[[dict], bool] | None = None
    ceiling: float | None = None


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "normal")
    if scale not in ("smoke", "normal", "full"):
        raise ValueError(f"REPRO_BENCH_SCALE must be smoke/normal/full, got {scale!r}")
    return scale


def cpu_info() -> dict:
    """Logical and physical core counts of the host.

    Physical cores come from the Linux sysfs topology (unique
    ``(package, core_id)`` pairs); ``None`` where sysfs is absent
    (non-Linux, containers masking it).  Every BENCH_*.json payload
    records this so throughput/scaling numbers carry the hardware
    context needed to compare them across hosts.
    """
    logical = os.cpu_count()
    physical = None
    base = "/sys/devices/system/cpu"
    try:
        cores: set[tuple[str, str]] = set()
        for entry in os.listdir(base):
            if not re.fullmatch(r"cpu\d+", entry):
                continue
            topo = os.path.join(base, entry, "topology")
            with open(os.path.join(topo, "physical_package_id")) as f:
                package = f.read().strip()
            with open(os.path.join(topo, "core_id")) as f:
                core = f.read().strip()
            cores.add((package, core))
        physical = len(cores) or None
    except OSError:
        physical = None
    return {"logical_cores": logical, "physical_cores": physical}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation —
    p50/p95 latency digests without a numpy dependency in the digest
    path."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(data):
        return data[-1]
    return data[low] * (1.0 - frac) + data[low + 1] * frac


def stamp_payload(payload: dict) -> dict:
    """Stamp the uniform envelope keys into a bench payload in place.

    ``schema_version`` marks the payload format; ``cpu`` records the
    measuring host's topology.  Existing keys are left alone so a
    benchmark that records richer CPU context keeps it.
    """
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload.setdefault("cpu", cpu_info())
    return payload


def write_bench_payload(payload: dict, out, default_name: str) -> Path:
    """Stamp, write, and echo a bench payload.

    ``out=None`` targets ``<repo root>/<default_name>`` — the
    committed location every ``bench_*.py`` script-mode run updates.
    """
    payload = stamp_payload(payload)
    path = Path(out) if out else REPO_ROOT / default_name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {path}")
    return path


def bench_script_main(
    run,
    default_name: str,
    *,
    description: str | None = None,
    scales=("smoke", "normal", "full"),
    argv=None,
) -> None:
    """The shared ``--scale``/``--out`` script-mode entry point.

    Every ``bench_*.py`` script mode is the same four lines: parse the
    two flags, call the payload builder with the chosen scale, stamp
    the envelope, write to the repo root.  ``run`` is that builder —
    ``run(scale) -> dict``.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale", choices=sorted(scales), default="full",
        help="workload scale to benchmark (default: full)",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output path (default: {default_name} at the repo root)",
    )
    args = parser.parse_args(argv)
    write_bench_payload(run(args.scale), args.out, default_name)
