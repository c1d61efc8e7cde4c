"""Package metadata for ``repro`` (this file is the only build config).

The version is read from ``src/repro/__init__.py``, so an installed
copy reports the same ``__version__`` as the source tree, and the
native backend's C source ships as package data, so a non-editable
install can still compile it (``repro.kernels.native.build``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Faster MPC algorithms for approximate allocation in uniformly "
        "sparse graphs: a reproduction"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.kernels.native": ["kernel.c"]},
    install_requires=["numpy"],
)
