"""``setup.py`` describes the package it builds: the name, the source
tree's ``__version__``, and the native backend's C source as package
data (a non-editable install compiles it from ``build.SOURCE_PATH``)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def _setup(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "setup.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_setup_metadata_matches_the_package(tmp_path):
    assert _setup("--name", "--version").split() == ["repro", repro.__version__]
    _setup("-q", "egg_info", "--egg-base", str(tmp_path))
    sources = (tmp_path / "repro.egg-info" / "SOURCES.txt").read_text().split()
    assert "src/repro/kernels/native/kernel.c" in sources
    requires = (tmp_path / "repro.egg-info" / "requires.txt").read_text().split()
    assert requires == ["numpy"]
