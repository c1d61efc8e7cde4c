"""Run ``repro.cli serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root)::

    python3 perfbench/serve_traced.py SPANS_OUT serve --store-dir DIR ...

Everything after ``SPANS_OUT`` is passed to ``repro.cli.main``
unchanged.  The spans recorded while the service ran are written to
``SPANS_OUT`` when it shuts down.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spans import Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    from repro import cli

    recorder = Recorder()
    with recorder.installed():
        code = cli.main(cli_args)
    recorder.dump(spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
