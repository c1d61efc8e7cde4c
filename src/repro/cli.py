"""Command-line solver for allocation instance files.

Usage::

    python -m repro.cli solve instance.json [--epsilon 0.2] [--seed 0]
    python -m repro.cli batch requests.jsonl --instance instance.json
    python -m repro.cli dynamic deltas.jsonl --instance instance.json
    python -m repro.cli dynamic --scenario diurnal_wave --steps 12 \\
        --instance instance.json
    python -m repro.cli generate forests --out instance.json \\
        --n-left 200 --n-right 150 --k 3
    python -m repro.cli info instance.json

``solve`` runs the full paper pipeline (MPC fractional → §6 rounding →
repair → App.-B boosting) and prints the audit summary; ``batch``
serves a JSONL request file through a resident
:class:`~repro.serve.AllocationSession` (warm-started solves, optional
thread parallelism — DESIGN.md §8); ``dynamic`` replays an instance
delta stream — one JSON delta per line, or a generated scenario
(``--scenario``) — through a :class:`~repro.dynamic.DynamicSession`
with warm incremental re-solves (DESIGN.md §9), printing one audit row
per step; ``generate`` materializes a benchmark-family instance to the
JSON format (:mod:`repro.graphs.io`); ``info`` prints instance
statistics including the measured degeneracy.

Every subcommand routes through the :class:`repro.api.Engine` façade:
the flags of ``solve``, ``batch`` and ``dynamic`` — ``--epsilon``,
``--seed``, ``--no-boost``, ``--backend`` (kernel backend, DESIGN.md
§6) and the ``--mpc-*`` execution flags — build one
:class:`repro.api.SolverConfig`, and the engine built from it owns the
run.  ``--backend`` is installed process-wide for the invocation
(``Engine.activate``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.graphs import degeneracy
from repro.graphs.generators import FAMILY_BUILDERS
from repro.graphs.io import save_instance

__all__ = ["main"]


def _load_instance_checked(path: str):
    """Load an instance file; exit code 2 on missing/malformed input."""
    from repro.api import Engine

    try:
        return Engine.load_instance(path)
    except FileNotFoundError:
        print(f"instance file not found: {path}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot read instance file: {path} ({exc})", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"instance file is not valid JSON: {path} ({exc})", file=sys.stderr)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"malformed instance file: {path} ({exc})", file=sys.stderr)
    return None


def _engine_from_args(args: argparse.Namespace, *, session_prefix: str = ""):
    """Build the activated :class:`repro.api.Engine` from a
    subcommand's flags; ``None`` (after printing to stderr) on invalid
    input.

    Validation is reported in two historical voices: a bad engine-
    selection name (``--backend``) prints the config error as-is,
    while a bad session parameter (``--epsilon``) is prefixed with
    ``session_prefix`` so a flag problem is reported as one.
    ``activate()`` (no paired restore) preserves the old
    install-process-wide flag semantics.
    """
    from repro.api import Engine, SolverConfig
    from repro.kernels import available_backends

    backend = getattr(args, "backend", None)
    try:
        config = SolverConfig(
            epsilon=args.epsilon,
            backend=backend,
            mode=getattr(args, "mpc_mode", None) or "simulate",
            mpc_budget_policy=getattr(args, "mpc_budget_policy", None) or "fixed",
            mpc_safety_fraction=(
                0.8
                if getattr(args, "mpc_safety_fraction", None) is None
                else args.mpc_safety_fraction
            ),
            boost=not args.no_boost,
            seed=args.seed,
        )
    except ValueError as exc:
        bad_engine_name = backend is not None and (
            backend not in available_backends()
            # registered but unusable on this host (e.g. "native"
            # without a C compiler) is an engine-selection problem
            or "unavailable on this host" in str(exc)
        )
        prefix = "" if bad_engine_name else session_prefix
        print(f"{prefix}{exc}", file=sys.stderr)
        return None
    return Engine(config).activate()


def _worker_count(text: str) -> int:
    """argparse type of the worker-count flags: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=None,
        help="kernel backend: reference|optimized|native|auto (native "
        "needs a C compiler; auto picks optimized below the measured "
        "native crossover and native above it; see "
        "repro.kernels.backend_availability)",
    )
    parser.add_argument(
        "--mpc-mode", default=None, dest="mpc_mode",
        help="MPC execution mode: simulate (default) | faithful "
        "(accounted cluster, DESIGN.md §5)",
    )
    parser.add_argument(
        "--mpc-budget-policy", default=None, dest="mpc_budget_policy",
        help="faithful-mode sample-budget policy: fixed (default) | "
        "adaptive (peak-hold throttling under the space budget, "
        "DESIGN.md §13; requires --mpc-mode faithful)",
    )
    parser.add_argument(
        "--mpc-safety-fraction", type=float, default=None,
        dest="mpc_safety_fraction",
        help="adaptive policy's safety band as a fraction of the "
        "per-machine space budget S (default 0.8)",
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.baselines.exact import optimum_value

    engine = _engine_from_args(args)
    if engine is None:
        return 2
    instance = _load_instance_checked(args.instance)
    if instance is None:
        return 2
    report = engine.solve(instance)
    summary = report.summary()
    if args.with_opt:
        opt = optimum_value(instance)
        summary["opt"] = opt
        summary["ratio"] = round(opt / max(1, report.size), 4)
    print(json.dumps({"instance": instance.describe(), "result": summary}, indent=2))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.serve import SolveRequest

    engine = _engine_from_args(
        args, session_prefix="invalid request for this instance: "
    )
    if engine is None:
        return 2
    instance = _load_instance_checked(args.instance)
    if instance is None:
        return 2
    try:
        with open(args.requests, encoding="utf-8") as f:
            numbered = [
                (lineno, line)
                for lineno, line in enumerate(f, start=1)
                if line.strip()
            ]
    except OSError as exc:
        print(f"cannot read request file: {args.requests} ({exc})", file=sys.stderr)
        return 2
    requests = []
    for lineno, line in numbered:
        try:
            requests.append(SolveRequest.from_json(json.loads(line)))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            print(
                f"malformed request on line {lineno} of {args.requests}: {exc}",
                file=sys.stderr,
            )
            return 2
    try:
        if args.shard_workers is not None:
            # Multi-process tier (DESIGN.md §12): shard workers own
            # the sessions.  Same determinism contract, same rows,
            # bit-identical reports.
            reports = engine.batch(
                instance, requests,
                executor="process", workers=args.shard_workers,
            )
            stats = ("fleet_stats", engine.shard_executor(args.shard_workers).stats())
        else:
            session = engine.open_session(instance)
            # Prime-then-batch (DESIGN.md §8.3): the first request runs
            # serially so the batched remainder warm-starts.
            reports = engine.batch(session, requests, max_workers=args.workers)
            stats = ("session_stats", session.stats.as_dict())
    except ValueError as exc:
        # e.g. capacity_updates naming a vertex outside the instance
        print(f"invalid request for this instance: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"sharded batch failed: {exc}", file=sys.stderr)
        return 3
    finally:
        engine.close()
    for i, report in enumerate(reports):
        row = {"request": i, **report.summary()}
        row["warm_start"] = bool(report.meta.get("warm_start"))
        tag = requests[i].tag
        if tag is not None:
            row["tag"] = tag
        print(json.dumps(row))
    print(json.dumps({stats[0]: stats[1]}), file=sys.stderr)
    return 0


def _cmd_dynamic(args: argparse.Namespace) -> int:
    from repro.dynamic import SCENARIOS, delta_from_json

    # A bad --epsilon is a flag problem, not a stream problem — the
    # engine construction reports it as "invalid session configuration".
    engine = _engine_from_args(
        args, session_prefix="invalid session configuration: "
    )
    if engine is None:
        return 2
    if (args.deltas is None) == (args.scenario is None):
        print(
            "pass a deltas.jsonl file or --scenario, not both/neither",
            file=sys.stderr,
        )
        return 2
    instance = _load_instance_checked(args.instance)
    if instance is None:
        return 2
    try:
        dynamic = engine.open_dynamic(instance)
    except ValueError as exc:  # pragma: no cover - config already validated
        print(f"invalid session configuration: {exc}", file=sys.stderr)
        return 2
    if args.scenario is not None:
        builder = SCENARIOS.get(args.scenario)
        if builder is None:
            print(
                f"unknown scenario {args.scenario!r}; "
                f"available: {sorted(SCENARIOS)}",
                file=sys.stderr,
            )
            return 2
        try:
            deltas = builder(instance, args.steps, seed=args.seed)
        except ValueError as exc:
            # e.g. flash_crowd on an instance with no servers
            print(
                f"cannot generate scenario {args.scenario!r} for this "
                f"instance: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        try:
            with open(args.deltas, encoding="utf-8") as f:
                numbered = [
                    (lineno, line)
                    for lineno, line in enumerate(f, start=1)
                    if line.strip()
                ]
        except OSError as exc:
            print(f"cannot read delta file: {args.deltas} ({exc})", file=sys.stderr)
            return 2
        deltas = []
        for lineno, line in numbered:
            try:
                deltas.append(delta_from_json(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                print(
                    f"malformed delta on line {lineno} of {args.deltas}: {exc}",
                    file=sys.stderr,
                )
                return 2
    try:
        if args.shard_workers is not None:
            # Replay on the instance's shard worker (DESIGN.md §12),
            # bit-identical to the in-process replay below.
            fleet = engine.shard_executor(args.shard_workers)
            outcome = fleet.run_replay(instance, deltas, seed=args.seed)
            rows, dynamic_stats = list(outcome.rows), outcome.stats
        else:
            # Prime (the initial cold solve that establishes the warm
            # state every subsequent incremental re-solve starts from),
            # then the replay — one engine call.
            outcome = engine.stream(dynamic, deltas)
            rows, dynamic_stats = outcome.rows(), dynamic.stats.as_dict()
    except ValueError as exc:
        # e.g. a delta naming a vertex outside the instance
        print(f"invalid delta stream for this instance: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"sharded replay failed: {exc}", file=sys.stderr)
        return 3
    finally:
        engine.close()
    assert outcome.prime is not None
    print(json.dumps({"step": "prime", "local_rounds": outcome.prime.local_rounds,
                      "final_size": outcome.prime.size}))
    for row in rows:
        print(json.dumps(row))
    print(
        json.dumps({"dynamic_stats": dynamic_stats}),
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.api import Engine

    if args.family not in FAMILY_BUILDERS:
        print(
            f"unknown family {args.family!r}; available: {sorted(FAMILY_BUILDERS)}",
            file=sys.stderr,
        )
        return 2
    kwargs = dict(seed=args.seed)
    if args.family == "union_of_forests":
        kwargs.update(n_left=args.n_left, n_right=args.n_right, k=args.k)
    elif args.family == "star":
        kwargs = dict(n_leaves=args.n_left)
    elif args.family == "erdos_renyi":
        kwargs.update(n_left=args.n_left, n_right=args.n_right, m=args.m)
    elif args.family == "power_law":
        kwargs.update(n_left=args.n_left, n_right=args.n_right)
    elif args.family == "load_balancing":
        kwargs.update(n_clients=args.n_left, n_servers=args.n_right, locality=args.k)
    elif args.family == "slow_spread":
        kwargs.update(core_right=args.k, width=max(1, args.n_left // max(1, args.k)))
    elif args.family == "adwords":
        kwargs.update(n_impressions=args.n_left, n_advertisers=args.n_right)
    else:
        print(
            f"family {args.family!r} needs bespoke parameters; use the Python API",
            file=sys.stderr,
        )
        return 2
    instance = Engine.generate_instance(args.family, **kwargs)
    save_instance(instance, args.out)
    print(f"wrote {instance.name}: n_left={instance.n_left} "
          f"n_right={instance.n_right} m={instance.n_edges} -> {args.out}")
    return 0


def _load_spec_checked(path: str):
    """Load a SweepSpec JSON file; ``None`` (after stderr) on bad input."""
    from repro.sweeps import SweepSpec

    try:
        return SweepSpec.from_json(open(path).read())
    except FileNotFoundError:
        print(f"spec file not found: {path}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"spec file is not valid JSON: {path} ({exc})", file=sys.stderr)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"malformed sweep spec: {path} ({exc})", file=sys.stderr)
    return None


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.sweeps import run_sweep

    spec = _load_spec_checked(args.spec)
    if spec is None:
        return 2
    try:
        result = run_sweep(
            spec,
            args.out,
            executor=args.executor,
            workers=args.workers,
            echo=(print if args.verbose else None),
        )
    except ValueError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"sweep {spec.name!r}: {result.total_cells} cells "
        f"({result.ran} ran, {result.skipped} already recorded) -> {args.out}"
    )
    return 0


def _cmd_sweep_cells(args: argparse.Namespace) -> int:
    spec = _load_spec_checked(args.spec)
    if spec is None:
        return 2
    for cell in spec.expand():
        print(
            f"{cell.cell_id}  {cell.family} n={cell.n} eps={cell.epsilon} "
            f"seed={cell.seed} {dict(cell.config)}"
        )
    return 0


def _cmd_sweep_extract(args: argparse.Namespace) -> int:
    from repro.sweeps import comparison_table, load_records

    try:
        records = load_records(args.out)
        table = comparison_table(
            records, rows=args.rows, cols=args.cols,
            value=args.value, agg=args.agg,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"extract failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(table.to_json(), sort_keys=True, indent=2))
    elif args.format == "markdown":
        print(table.to_markdown())
    else:
        print(table.to_ascii())
    return 0


def _cmd_sweep_plot(args: argparse.Namespace) -> int:
    from repro.sweeps import ascii_chart, load_records, plot_payload

    try:
        records = load_records(args.out)
        payload = plot_payload(
            records, x=args.x, y=args.y, group=args.group or None
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"plot failed: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        from pathlib import Path

        Path(args.json_out).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
        print(f"wrote plot data -> {args.json_out}")
    print(ascii_chart(payload))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.graphs.properties import profile_graph

    instance = _load_instance_checked(args.instance)
    if instance is None:
        return 2
    info = instance.describe()
    info["degeneracy"] = degeneracy(instance.graph)
    info["max_degree"] = instance.graph.max_degree
    info.update(profile_graph(instance.graph).as_dict())
    print(json.dumps(info, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.service import run_service

    engine = _engine_from_args(args, session_prefix="session: ")
    if engine is None:
        return 2
    try:
        service = engine.open_service(
            args.store_dir,
            socket_path=args.socket,
            max_sessions=args.max_sessions,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_on_commit=args.checkpoint_every_solve,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    # Pre-admit instances given on the command line (the supervisor
    # shape: the serving set is known at deploy time).
    for path in args.instance or ():
        instance = _load_instance_checked(path)
        if instance is None:
            return 2
        service._admit(instance)
    try:
        run_service(service)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Solve / generate / inspect allocation instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full paper pipeline")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--epsilon", type=float, default=0.2)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--no-boost", action="store_true")
    p_solve.add_argument(
        "--with-opt", action="store_true",
        help="also compute the exact optimum (Dinic) and the ratio",
    )
    _add_engine_flags(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_batch = sub.add_parser(
        "batch",
        help="serve a JSONL request file through a resident session",
    )
    p_batch.add_argument(
        "requests",
        help="JSONL file: one SolveRequest object per line "
             '(e.g. {"epsilon": 0.2, "capacity_updates": {"0": 3}})',
    )
    p_batch.add_argument(
        "--instance", required=True, help="shared instance JSON file"
    )
    p_batch.add_argument("--epsilon", type=float, default=0.2,
                         help="session default epsilon")
    p_batch.add_argument("--seed", type=int, default=0,
                         help="batch seed (per-position streams)")
    p_batch.add_argument("--no-boost", action="store_true",
                         help="session default: skip boosting")
    p_batch.add_argument("--workers", type=_worker_count, default=None,
                         help="thread pool size (default: cpu-based)")
    p_batch.add_argument(
        "--shard-workers", type=_worker_count, default=None,
        help="serve through a multi-process shard fleet of this size "
             "(instance-hash routing; bit-identical to the thread path "
             "— DESIGN.md §12)",
    )
    _add_engine_flags(p_batch)
    p_batch.set_defaults(fn=_cmd_batch)

    p_dyn = sub.add_parser(
        "dynamic",
        help="replay an instance-delta stream with warm incremental re-solves",
    )
    p_dyn.add_argument(
        "deltas", nargs="?", default=None,
        help="JSONL file: one delta object per line "
             '(e.g. {"type": "capacity_scale", "factor": 1.5}); '
             "omit when using --scenario",
    )
    p_dyn.add_argument(
        "--instance", required=True, help="initial instance JSON file"
    )
    p_dyn.add_argument(
        "--scenario", default=None,
        help="generate the stream instead of reading one "
             "(diurnal_wave|flash_crowd|rolling_maintenance|adversarial_churn)",
    )
    p_dyn.add_argument("--steps", type=int, default=12,
                       help="scenario length (with --scenario)")
    p_dyn.add_argument("--epsilon", type=float, default=0.2,
                       help="session default epsilon")
    p_dyn.add_argument("--seed", type=int, default=0,
                       help="prime/replay seed (per-position streams)")
    p_dyn.add_argument("--no-boost", action="store_true",
                       help="session default: skip boosting")
    p_dyn.add_argument(
        "--shard-workers", type=_worker_count, default=None,
        help="replay on a shard worker process instead of in-process "
             "(bit-identical rows — DESIGN.md §12)",
    )
    _add_engine_flags(p_dyn)
    p_dyn.set_defaults(fn=_cmd_dynamic)

    p_serve = sub.add_parser(
        "serve",
        help="run the durable-session allocation service "
             "(JSONL over a unix socket, snapshot/restore — DESIGN.md §14)",
    )
    p_serve.add_argument(
        "--store-dir", required=True,
        help="session snapshot store directory (created if missing); "
             "restart against the same directory to recover warm state",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="unix socket path (default: <store-dir>/service.sock)",
    )
    p_serve.add_argument(
        "--instance", action="append", default=None,
        help="instance JSON file to pre-admit (repeatable)",
    )
    p_serve.add_argument("--max-sessions", type=int, default=8,
                         help="resident session cap (LRU eviction-to-snapshot)")
    p_serve.add_argument(
        "--checkpoint-interval", type=float, default=None,
        help="periodic checkpoint cadence in seconds (default: off)",
    )
    p_serve.add_argument(
        "--checkpoint-every-solve", action="store_true",
        help="snapshot after every committed solve (the bit-identical "
             "crash-recovery mode)",
    )
    p_serve.add_argument("--epsilon", type=float, default=0.2,
                         help="session default epsilon")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="root seed of the deterministic seed-cursor streams")
    p_serve.add_argument("--no-boost", action="store_true",
                         help="session default: skip boosting")
    _add_engine_flags(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_gen = sub.add_parser("generate", help="write a benchmark-family instance")
    p_gen.add_argument("family", help=f"one of {sorted(FAMILY_BUILDERS)}")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n-left", type=int, default=100)
    p_gen.add_argument("--n-right", type=int, default=80)
    p_gen.add_argument("--k", type=int, default=3)
    p_gen.add_argument("--m", type=int, default=300)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_generate)

    p_info = sub.add_parser("info", help="print instance statistics")
    p_info.add_argument("instance")
    p_info.set_defaults(fn=_cmd_info)

    p_sweep = sub.add_parser(
        "sweep",
        help="run / inspect declarative parameter sweeps (repro.sweeps)",
    )
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_sw_run = sweep_sub.add_parser(
        "run", help="execute (or resume) a sweep spec into a manifest dir"
    )
    p_sw_run.add_argument("--spec", required=True, help="SweepSpec JSON file")
    p_sw_run.add_argument("--out", required=True, help="manifest directory")
    p_sw_run.add_argument(
        "--executor", choices=("inline", "process"), default="inline",
        help="inline: each cell in-process; process: fan out through "
             "the shard fleet (DESIGN.md §12)",
    )
    p_sw_run.add_argument("--workers", type=_worker_count, default=None,
                          help="process-executor fleet size")
    p_sw_run.add_argument("--verbose", action="store_true",
                          help="echo per-cell progress")
    p_sw_run.set_defaults(fn=_cmd_sweep_run)

    p_sw_cells = sweep_sub.add_parser(
        "cells", help="print a spec's expanded cells (id + axes)"
    )
    p_sw_cells.add_argument("--spec", required=True)
    p_sw_cells.set_defaults(fn=_cmd_sweep_cells)

    p_sw_extract = sweep_sub.add_parser(
        "extract", help="pivot recorded cells into a comparison table"
    )
    p_sw_extract.add_argument("--out", required=True, help="manifest directory")
    p_sw_extract.add_argument("--rows", default="family")
    p_sw_extract.add_argument("--cols", default="n")
    p_sw_extract.add_argument("--value", default="local_rounds")
    p_sw_extract.add_argument("--agg", default="mean",
                              choices=("mean", "min", "max", "sum"))
    p_sw_extract.add_argument("--format", default="ascii",
                              choices=("ascii", "markdown", "json"))
    p_sw_extract.set_defaults(fn=_cmd_sweep_extract)

    p_sw_plot = sweep_sub.add_parser(
        "plot", help="emit ASCII/JSON plot data from recorded cells"
    )
    p_sw_plot.add_argument("--out", required=True, help="manifest directory")
    p_sw_plot.add_argument("--x", default="n")
    p_sw_plot.add_argument("--y", default="local_rounds")
    p_sw_plot.add_argument("--group", default="family",
                           help="series axis ('' for a single series)")
    p_sw_plot.add_argument("--json-out", default=None,
                           help="also write the JSON plot payload here")
    p_sw_plot.set_defaults(fn=_cmd_sweep_plot)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    raise SystemExit(main())
