"""API-surface snapshot: the public names and signatures of
``repro.api`` against a checked-in snapshot, so accidental breakage of
the versioned surface fails CI instead of shipping.

Regenerate after an *intentional* surface change with::

    PYTHONPATH=src python tests/test_api_surface.py --write

and commit the updated ``api_surface_snapshot.json`` alongside the
change (bump the schema versions in ``repro.api`` when the change is
breaking).
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).resolve().parent / "api_surface_snapshot.json"


def _describe_callable(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # pragma: no cover - builtins without sigs
        return "<no signature>"


def _describe_class(cls) -> dict:
    members: dict[str, str] = {}
    for name in sorted(dir(cls)):
        if name.startswith("_"):
            continue
        static = inspect.getattr_static(cls, name)
        if isinstance(static, property):
            members[name] = "<property>"
        elif isinstance(static, staticmethod):
            members[name] = "static" + _describe_callable(static.__func__)
        elif isinstance(static, classmethod):
            members[name] = "class" + _describe_callable(static.__func__)
        elif callable(static):
            members[name] = _describe_callable(static)
        else:
            members[name] = f"<attribute default={static!r}>"
    return {
        "kind": "class",
        "init": _describe_callable(cls),
        "members": members,
    }


def _describe(obj) -> dict:
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return {"kind": "function", "signature": _describe_callable(obj)}
    return {"kind": "constant", "value": repr(obj)}


def build_surface() -> dict:
    """The surface document: every ``repro.api`` export."""
    import repro.api as api

    return {
        "repro.api": {
            name: _describe(getattr(api, name)) for name in sorted(api.__all__)
        },
    }


def test_api_surface_matches_snapshot():
    assert SNAPSHOT_PATH.exists(), (
        f"missing {SNAPSHOT_PATH.name}; generate it with "
        "`PYTHONPATH=src python tests/test_api_surface.py --write`"
    )
    expected = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    actual = build_surface()
    assert actual == expected, (
        "the public repro.api surface drifted from the checked-in "
        "snapshot.  If the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_api_surface.py --write` and "
        "commit the diff (bumping the schema versions if breaking); "
        "otherwise restore the surface."
    )


def test_top_level_exports_present():
    import repro

    for name in ("Engine", "SolverConfig", "AllocationReport", "__version__"):
        assert name in repro.__all__
    assert repro.__version__ == "4.0.0"


if __name__ == "__main__":
    if "--write" in sys.argv:
        SNAPSHOT_PATH.write_text(
            json.dumps(build_surface(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {SNAPSHOT_PATH}")
    else:
        print(__doc__)
