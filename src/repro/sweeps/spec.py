"""Declarative sweep grids over solver configs × instance axes.

A :class:`SweepSpec` is the sweep analogue of
:class:`repro.api.SolverConfig`: a frozen, validated description of a
parameter grid.  The instance axes (generator family, target size n,
epsilon, seed) cross with ``config_axes`` — lists of values for any
other :class:`SolverConfig` field (backend, mode, budget policy,
executor, …) — and :meth:`SweepSpec.expand` materialises the
product as frozen :class:`SweepCell` rows.

Cell identity is *content*-addressed: :attr:`SweepCell.cell_id` is a
sha256 prefix over the canonical JSON of the cell's axes, so the same
point in parameter space has the same id in every sweep that contains
it — renaming a spec, reordering its axes, or adding new axes values
never invalidates previously computed records.  The resumable runner
(:mod:`repro.sweeps.runner`) keys its on-disk records by these ids.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.graphs.generators import SIZED_FAMILIES

__all__ = ["SweepSpec", "SweepCell", "SPEC_SCHEMA", "CELL_SCHEMA"]

SPEC_SCHEMA = "repro.sweeps/SweepSpec/v1"
CELL_SCHEMA = "repro.sweeps/cell/v1"

# Instance axes are spelled as dedicated spec fields; everything else
# routes through config_axes and must name a real SolverConfig field.
_RESERVED_CONFIG_FIELDS = frozenset({"epsilon", "seed"})


def _solver_config_fields() -> frozenset[str]:
    import dataclasses

    from repro.api.config import SolverConfig

    return frozenset(f.name for f in dataclasses.fields(SolverConfig))


def _canonical(value: Any) -> Any:
    """JSON-roundtrip a value so hashing sees what the record will hold."""
    return json.loads(json.dumps(value))


@dataclass(frozen=True)
class SweepCell:
    """One frozen point of the grid: instance axes + solver overrides.

    ``config`` is a sorted tuple of ``(field, value)`` pairs — the
    merged ``base_config`` + per-axis values — kept hashable so cells
    can live in sets and dict keys.
    """

    family: str
    n: int
    epsilon: float
    seed: int
    config: tuple[tuple[str, Any], ...] = ()

    @property
    def cell_id(self) -> str:
        payload = json.dumps(self.axes(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def axes(self) -> dict[str, Any]:
        """The content that identifies this cell (and nothing else)."""
        return _canonical({
            "family": self.family,
            "n": self.n,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "config": dict(self.config),
        })

    def solver_config(self):
        """The validated :class:`repro.api.SolverConfig` for this cell."""
        from repro.api.config import SolverConfig

        return SolverConfig(
            epsilon=self.epsilon, seed=self.seed, **dict(self.config)
        )

    def build_instance(self):
        """The cell's instance: ``sized_instance(family, n, seed)``."""
        from repro.graphs.generators import sized_instance

        return sized_instance(self.family, self.n, seed=self.seed)

    def to_dict(self) -> dict[str, Any]:
        return {"schema": CELL_SCHEMA, "cell_id": self.cell_id, **self.axes()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepCell":
        schema = payload.get("schema", CELL_SCHEMA)
        if schema != CELL_SCHEMA:
            raise ValueError(f"unknown cell schema {schema!r}")
        cell = cls(
            family=str(payload["family"]),
            n=int(payload["n"]),
            epsilon=float(payload["epsilon"]),
            seed=int(payload["seed"]),
            config=tuple(sorted(dict(payload.get("config", {})).items())),
        )
        recorded = payload.get("cell_id")
        if recorded is not None and recorded != cell.cell_id:
            raise ValueError(
                f"cell_id mismatch: payload says {recorded!r}, "
                f"content hashes to {cell.cell_id!r}"
            )
        return cell


@dataclass(frozen=True)
class SweepSpec:
    """A validated grid: instance axes × SolverConfig axes.

    ``config_axes`` maps SolverConfig field names to the list of
    values to sweep; ``base_config`` holds fixed overrides applied to
    every cell (a per-axis value wins over a base value for the same
    field).  ``epsilon`` and ``seed`` are instance axes and may not
    appear in either mapping.
    """

    name: str
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    epsilons: tuple[float, ...] = (0.2,)
    seeds: tuple[int, ...] = (0,)
    config_axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    base_config: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self):
        if not self.name or not str(self.name).strip():
            raise ValueError("spec name must be non-empty")
        object.__setattr__(self, "families", tuple(str(f) for f in self.families))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self,
            "config_axes",
            tuple(
                (str(k), tuple(vs))
                for k, vs in (
                    self.config_axes.items()
                    if isinstance(self.config_axes, Mapping)
                    else self.config_axes
                )
            ),
        )
        object.__setattr__(
            self,
            "base_config",
            tuple(
                sorted(
                    (str(k), v)
                    for k, v in (
                        self.base_config.items()
                        if isinstance(self.base_config, Mapping)
                        else self.base_config
                    )
                )
            ),
        )
        if not self.families:
            raise ValueError("spec needs at least one family")
        if not self.sizes:
            raise ValueError("spec needs at least one size")
        if not self.epsilons:
            raise ValueError("spec needs at least one epsilon")
        if not self.seeds:
            raise ValueError("spec needs at least one seed")
        unknown = [f for f in self.families if f not in SIZED_FAMILIES]
        if unknown:
            raise ValueError(
                f"unknown families {unknown}; valid: "
                f"{', '.join(sorted(SIZED_FAMILIES))}"
            )
        for n in self.sizes:
            if n < 1:
                raise ValueError(f"sizes must be >= 1, got {n}")
        valid_fields = _solver_config_fields()
        seen: set[str] = set()
        for source in (dict(self.config_axes), dict(self.base_config)):
            for key in source:
                if key in _RESERVED_CONFIG_FIELDS:
                    raise ValueError(
                        f"{key!r} is an instance axis (epsilons=/seeds=), "
                        "not a config axis"
                    )
                if key not in valid_fields:
                    raise ValueError(
                        f"{key!r} is not a SolverConfig field; valid: "
                        f"{', '.join(sorted(valid_fields))}"
                    )
        for key, values in self.config_axes:
            if key in seen:
                raise ValueError(f"duplicate config axis {key!r}")
            seen.add(key)
            if not values:
                raise ValueError(f"config axis {key!r} has no values")

    @property
    def n_cells(self) -> int:
        total = (
            len(self.families) * len(self.sizes)
            * len(self.epsilons) * len(self.seeds)
        )
        for _, values in self.config_axes:
            total *= len(values)
        return total

    def expand(self) -> list[SweepCell]:
        """Every cell of the grid, in deterministic axis-major order.

        Each cell's :meth:`SweepCell.solver_config` is constructed once
        here, so an invalid combination (e.g. ``mpc_budget_policy=
        'adaptive'`` with ``mode='simulate'``) fails at expansion time
        with the config layer's own error, before anything runs.
        """
        axis_names = [k for k, _ in self.config_axes]
        axis_values = [vs for _, vs in self.config_axes]
        base = dict(self.base_config)
        cells: list[SweepCell] = []
        for family, n, epsilon, seed in itertools.product(
            self.families, self.sizes, self.epsilons, self.seeds
        ):
            for combo in itertools.product(*axis_values) if axis_values else [()]:
                merged = dict(base)
                merged.update(zip(axis_names, combo))
                cell = SweepCell(
                    family=family,
                    n=n,
                    epsilon=epsilon,
                    seed=seed,
                    config=tuple(sorted(merged.items())),
                )
                cell.solver_config()
                cells.append(cell)
        return cells

    def to_dict(self) -> dict[str, Any]:
        return _canonical({
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "families": list(self.families),
            "sizes": list(self.sizes),
            "epsilons": list(self.epsilons),
            "seeds": list(self.seeds),
            "config_axes": {k: list(vs) for k, vs in self.config_axes},
            "base_config": dict(self.base_config),
        })

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        schema = payload.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(f"unknown sweep spec schema {schema!r}")
        return cls(
            name=str(payload["name"]),
            families=tuple(payload["families"]),
            sizes=tuple(payload["sizes"]),
            epsilons=tuple(payload.get("epsilons", (0.2,))),
            seeds=tuple(payload.get("seeds", (0,))),
            config_axes=tuple(
                (k, tuple(vs))
                for k, vs in dict(payload.get("config_axes", {})).items()
            ),
            base_config=tuple(
                sorted(dict(payload.get("base_config", {})).items())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
