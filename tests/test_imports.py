"""Every public subpackage imports cleanly as the first import of a
fresh interpreter, whatever order its own imports pull others in."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
SUBPACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg and not info.name.startswith("_")
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first_in_a_fresh_interpreter(name):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
