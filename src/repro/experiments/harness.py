"""Experiment harness: registry, scales, result persistence.

Every experiment module exposes ``run(scale, seed) -> Table`` and
registers itself under its id (``e0`` … ``e12``; the full id set is
pinned by ``EXPECTED_EXPERIMENT_IDS`` and asserted against the
registry whenever the modules are loaded, so the registry and the
module list cannot silently drift apart).  Three scales:

* ``smoke`` — seconds; used by the test suite to keep every experiment
  permanently runnable;
* ``normal`` — the default for ``pytest benchmarks/``;
* ``full`` — the sizes quoted in EXPERIMENTS.md.

``run_and_save`` renders the table to both ASCII (stdout-friendly) and
markdown + JSON under ``benchmarks/results/`` so EXPERIMENTS.md can
cite regenerable artifacts.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Literal, Optional

from repro.utils.tables import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import SolverConfig

__all__ = [
    "Scale",
    "ExperimentSpec",
    "EXPECTED_EXPERIMENT_IDS",
    "REGISTRY",
    "register",
    "get_experiment",
    "run_experiment",
    "run_and_save",
    "default_results_dir",
]

Scale = Literal["smoke", "normal", "full"]

_EXPERIMENT_MODULES = [
    "repro.experiments.exp_inventory",
    "repro.experiments.exp_round_complexity",
    "repro.experiments.exp_approximation",
    "repro.experiments.exp_n_independence",
    "repro.experiments.exp_sampling",
    "repro.experiments.exp_mpc_rounds",
    "repro.experiments.exp_lambda_guessing",
    "repro.experiments.exp_rounding",
    "repro.experiments.exp_boosting",
    "repro.experiments.exp_star_reduction",
    "repro.experiments.exp_ablations",
    "repro.experiments.exp_levelset_dynamics",
    "repro.experiments.exp_bmatching",
]

# One id per module above.  _ensure_loaded() asserts the registry
# matches exactly, so adding an experiment module without its id here
# (or vice versa) fails at first use instead of silently drifting.
EXPECTED_EXPERIMENT_IDS = tuple(f"e{i}" for i in range(len(_EXPERIMENT_MODULES)))


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment."""

    exp_id: str
    title: str
    claim: str                      # the paper statement being checked
    run: Callable[..., Table]       # run(scale=..., seed=...) -> Table


REGISTRY: dict[str, ExperimentSpec] = {}


def register(exp_id: str, title: str, claim: str):
    """Decorator: register a ``run(scale, seed)`` callable."""

    def deco(fn: Callable[..., Table]) -> Callable[..., Table]:
        if exp_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        REGISTRY[exp_id] = ExperimentSpec(exp_id=exp_id, title=title, claim=claim, run=fn)
        return fn

    return deco


def _ensure_loaded() -> None:
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)
    if set(REGISTRY) != set(EXPECTED_EXPERIMENT_IDS):
        missing = sorted(set(EXPECTED_EXPERIMENT_IDS) - set(REGISTRY))
        extra = sorted(set(REGISTRY) - set(EXPECTED_EXPERIMENT_IDS))
        raise ImportError(
            "experiment registry drifted from _EXPERIMENT_MODULES: "
            f"missing ids {missing}, unexpected ids {extra}"
        )


def get_experiment(exp_id: str) -> ExperimentSpec:
    _ensure_loaded()
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(REGISTRY)}"
        ) from None


def run_experiment(
    exp_id: str,
    *,
    scale: Scale = "normal",
    seed: int = 0,
    config: Optional["SolverConfig"] = None,
) -> Table:
    """Run one experiment, optionally under an engine configuration.

    ``config`` is the harness's driver selection: when given, the run
    executes inside an activated :class:`repro.api.Engine`, so the
    config's kernel backend drives every solve the experiment
    performs.  The selection is recorded as a table note so persisted
    results say which engine produced them.
    """
    spec = get_experiment(exp_id)
    if config is None:
        table = spec.run(scale=scale, seed=seed)
    else:
        from repro.api import Engine

        with Engine(config):
            table = spec.run(scale=scale, seed=seed)
        if config.backend is not None:
            table.add_note(f"engine: backend={config.backend}")
    table.add_note(f"claim: {spec.claim}")
    table.add_note(f"scale={scale} seed={seed}")
    return table


def default_results_dir() -> Path:
    """``benchmarks/results`` under the repo root when the source tree
    is importable in place, else ``results/`` in the working directory.

    The canonical directory name is ``results`` everywhere (the name
    tests and EXPERIMENTS.md cite); the repo root is recognized by its
    packaging marker (``pyproject.toml`` or ``setup.py``).
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists() or (parent / "setup.py").exists():
            return parent / "benchmarks" / "results"
    return Path.cwd() / "results"


def run_and_save(
    exp_id: str,
    *,
    scale: Scale = "normal",
    seed: int = 0,
    results_dir: Path | None = None,
    echo: bool = True,
    config: Optional["SolverConfig"] = None,
) -> Table:
    """Run one experiment and persist its table (markdown + JSON)."""
    table = run_experiment(exp_id, scale=scale, seed=seed, config=config)
    out_dir = results_dir or default_results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{exp_id}.md").write_text(table.to_markdown() + "\n")
    (out_dir / f"{exp_id}.json").write_text(table.to_json() + "\n")
    if echo:
        print()
        print(table.to_ascii())
    return table
