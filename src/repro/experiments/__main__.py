"""CLI for the experiment suite.

Examples::

    python -m repro.experiments e1
    python -m repro.experiments --exp e5 --scale full --seed 3
    python -m repro.experiments e5 --backend reference
    python -m repro.experiments all --scale smoke
    python -m repro.experiments --list

``--backend`` selects the kernel backend driving every solve (a
:class:`repro.api.SolverConfig` activated for the run).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.harness import (
    REGISTRY,
    _ensure_loaded,
    run_and_save,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the theorem-driven experiment suite (e0-e12).",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (e0..e12), 'all', or 'list'",
    )
    parser.add_argument(
        "--exp", default=None, metavar="ID",
        help="experiment id to run (flag form of the positional)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the id/title/claim table of registered experiments",
    )
    parser.add_argument("--scale", choices=["smoke", "normal", "full"], default="normal")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend", default=None,
        help="kernel backend driving every solve (one of "
             "repro.kernels.available_backends())",
    )
    args = parser.parse_args(argv)

    config = None
    if args.backend is not None:
        from repro.api import SolverConfig

        try:
            config = SolverConfig(backend=args.backend)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    _ensure_loaded()
    if args.list or args.experiment == "list":
        from repro.utils.tables import Table

        table = Table(
            "Registered experiments", columns=["id", "title", "claim"]
        )
        for exp_id in sorted(REGISTRY):
            spec = REGISTRY[exp_id]
            table.add_row(id=exp_id, title=spec.title, claim=spec.claim)
        print(table.to_ascii())
        return 0

    if args.exp is not None and args.experiment is not None:
        print("give either a positional experiment id or --exp, not both",
              file=sys.stderr)
        return 2
    experiment = args.exp if args.exp is not None else args.experiment
    if experiment is None:
        parser.print_usage(sys.stderr)
        print("an experiment id, 'all', or --list is required", file=sys.stderr)
        return 2

    targets = sorted(REGISTRY) if experiment == "all" else [experiment]
    for exp_id in targets:
        if exp_id not in REGISTRY:
            print(
                f"unknown experiment {exp_id!r}; "
                f"valid: {', '.join(sorted(REGISTRY))}",
                file=sys.stderr,
            )
            return 2
        run_and_save(exp_id, scale=args.scale, seed=args.seed, config=config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
