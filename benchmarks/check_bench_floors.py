"""Guard: BENCH_*.json payloads must hold the bars their benches declare.

Each ``benchmarks/bench_<stem>.py`` that writes ``BENCH_<stem>.json``
declares that payload's acceptance bars once, next to the code that
measures them, as a module-level ``BARS`` tuple of
:class:`benchmarks._scale.Bar`.  This script imports every bench that
declares ``BARS``, reads its payload, and fails each applicable bar
whose value is missing or beyond its floor (or ceiling), naming the
bar.  It prints one line per bar: value, bound, and whether it is met
or not applicable on the measuring host.

Run from the repo root (exit code 0/1)::

    python benchmarks/check_bench_floors.py
    python benchmarks/check_bench_floors.py --diff /tmp/fresh_bench

``--diff FRESH_DIR`` runs the same check on a freshly recorded tree
(e.g. a CI smoke run): payloads the run did not produce are skipped,
and a run in which no applicable bar was compared fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not __package__:  # invoked as a script: the benches import repro
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

MISSING = object()


def declared_bars() -> dict[str, tuple]:
    """``{payload file name: BARS}`` for every bench declaring bars.

    Only scripts whose source assigns ``BARS`` at module level are
    imported, so the pytest-benchmark wrappers are never loaded.
    """
    bars = {}
    for script in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        if re.search(r"^BARS\b", script.read_text(), re.MULTILINE):
            module = importlib.import_module(f"benchmarks.{script.stem}")
            bars[f"BENCH_{script.stem[len('bench_'):]}.json"] = module.BARS
    return bars


def matches(node, path: str, done: str = ""):
    """``(dotted path, value)`` for every match of ``path`` under
    ``node``; a path that breaks off yields ``MISSING`` there."""
    head, _, rest = path.partition(".")
    keys: list = []
    if isinstance(node, dict):
        keys = list(node) if head == "*" else [head] if head in node else []
    elif isinstance(node, list):
        if head == "*":
            keys = list(range(len(node)))
        elif re.fullmatch(r"-?\d+", head) and -len(node) <= int(head) < len(node):
            keys = [int(head)]
    if not keys:
        yield done + head, MISSING
    for key in keys:
        if rest:
            yield from matches(node[key], rest, f"{done}{key}.")
        else:
            yield f"{done}{key}", node[key]


def _holds(bar, value) -> bool:
    if bar.floor is True:
        return value is True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value >= bar.floor if bar.ceiling is None else value <= bar.ceiling


def _check_payload(name: str, payload, bars) -> tuple[list[str], list[str], int]:
    """``(lines, failures, compared)`` for one payload's bars."""
    lines, failures, compared = [], [], 0
    for bar in bars:
        try:
            applies = bar.when is None or bool(bar.when(payload))
        except (KeyError, IndexError, TypeError) as exc:
            failures.append(
                f"{name} {bar.path}: cannot tell whether it applies ({exc!r})"
            )
            continue
        bound = (
            f"floor {json.dumps(bar.floor)}" if bar.ceiling is None
            else f"ceiling {json.dumps(bar.ceiling)}"
        )
        for path, value in matches(payload, bar.path):
            shown = "missing" if value is MISSING else json.dumps(value)
            if not applies:
                verdict = "not applicable"
            else:
                compared += 1
                verdict = "met" if _holds(bar, value) else "MISSED"
            line = f"{name} {path}: {shown} ({bound}) {verdict}"
            lines.append(line)
            if verdict == "MISSED":
                failures.append(line)
    return lines, failures, compared


def run_checks(root: Path = ROOT, *, fresh: bool = False) -> tuple[list[str], list[str]]:
    """``(lines, failures)`` for the payloads under ``root``; no
    failures means every applicable bar holds.

    ``fresh`` is the ``--diff`` mode: payloads absent from ``root``
    are skipped rather than failed, and comparing nothing fails.
    """
    lines: list[str] = []
    failures: list[str] = []
    compared = 0
    for name, bars in declared_bars().items():
        path = root / name
        if not path.exists():
            if fresh:
                lines.append(f"{name}: skipped, not in this run")
            else:
                failures.append(f"{name}: missing")
            continue
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            failures.append(f"{name}: not valid JSON ({exc})")
            continue
        more_lines, more_failures, more_compared = _check_payload(name, payload, bars)
        lines += more_lines
        failures += more_failures
        compared += more_compared
    if fresh and compared == 0:
        failures.append(f"no applicable bar to compare under {root}")
    return lines, failures


def main(root: Path = ROOT, argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--diff", metavar="FRESH_DIR", default=None,
        help="check the BENCH_*.json of a fresh run under FRESH_DIR "
             "instead of the committed ones",
    )
    args = parser.parse_args([] if argv is None else argv)
    lines, failures = run_checks(
        Path(args.diff) if args.diff else root, fresh=args.diff is not None
    )
    print("\n".join(lines))
    if failures:
        print("benchmark bar regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("every applicable bar holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
