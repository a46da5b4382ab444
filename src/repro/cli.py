"""Command-line interface: ``python -m repro.cli`` or the ``repro-gathering`` script.

Subcommands
-----------
``enumerate``
    Count (and optionally list) the connected initial configurations
    (experiment E1; 3652 for seven robots).
``verify``
    Run the exhaustive verification of an algorithm over every connected
    initial configuration (experiment E2) and print the summary.
``trace``
    Run a single execution from a given or built-in initial configuration and
    print the ASCII frames (experiment E4).
``range1``
    Evaluate the candidate visibility-range-1 rule tables and run the
    rule-space search (experiment E3).
``sweep``
    Run an ablation grid — every algorithm × scheduler × round-budget cell —
    over the exhaustive configuration set (or a sampled subset) through the
    unified batch runner.
``explore``
    Exhaustive transition-graph model checking: classify every reachable
    configuration as gathered/safe/deadlock/livelock/collision/disconnected
    under FSYNC or adversarial SSYNC edges, and print one minimal
    counterexample trace per failing class.
``synth``
    Counterexample-guided rule synthesis: repair a base algorithm's missing
    guard behaviours with the CEGIS engine of :mod:`repro.synth`, validate
    the result under FSYNC and adversarial SSYNC exploration, and optionally
    save the synthesized rule set.  ``--allow-amend`` opens the amending
    repair space (override rules that may replace printed moves, guarded by
    the won-root regression gate); ``--seed-ruleset`` starts from an
    existing rule set instead of from scratch.

``serve``
    Start the persistent gathering service: an asyncio HTTP + WebSocket API
    (:mod:`repro.serve`) that builds the successor tables once at startup
    and answers ``/v1/verify``, ``/v1/sweep``, ``/v1/census``,
    ``/v1/witness`` and ``/v1/stream`` queries from them — multiple
    ``--workers`` map one copy of the tables.

Every subcommand documents its exit codes in ``--help``; JSON-producing
subcommands accept ``--output FILE`` so machine-readable reports never
interleave with progress text on stdout.

Observability
-------------
All subcommands share the observability flags from :mod:`repro.obs`:
``--telemetry FILE`` writes a run manifest plus the merged metrics snapshot
as JSON on exit, ``--trace FILE`` appends span/event records as JSON Lines,
and ``--log-level``/``--log-json`` configure structured logging on stderr.
``repro-gathering --version`` prints the package version.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from .algorithms import available_algorithms, create_algorithm
from .algorithms.range1 import CANDIDATE_TABLES, RuleTableAlgorithm
from .analysis.impossibility import default_gadget_suite, search_rule_space
from .analysis.synth_progress import synth_progress
from .analysis.verification import verify_all_configurations
from .core.configuration import Configuration, hexagon, line
from .core.engine import KERNELS, run_execution
from .core.runner import run_sweep
from .enumeration.polyhex import count_connected_configurations
from .explore import MODES, explore
from .io.serialization import dumps, exploration_to_dict, report_to_dict, synthesis_to_dict, trace_to_dict
from .obs import (
    close_sink,
    configure_sink,
    new_run_id,
    package_version,
    run_manifest,
    setup_logging,
    write_telemetry,
)
from .viz.ascii_art import render_trace, render_witness

__all__ = ["main", "build_parser"]

_BUILTIN_CONFIGS = {
    "line-se": lambda: line(7),
    "line-e": lambda: Configuration([(i, 0) for i in range(7)]),
    "line-ne": lambda: Configuration([(0, i) for i in range(7)]),
    "hexagon": hexagon,
    "figure54": lambda: Configuration([(0, 0), (0, 1), (1, 1), (1, -1), (2, -1), (2, 0), (-1, 1)]),
}


def _positive_int(text: str) -> int:
    """Argparse ``type=`` for robot, worker, round and vertex counts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_int_list(text: str) -> List[int]:
    """Argparse ``type=`` for a comma-separated list of positive integers."""
    return [_positive_int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-gathering",
        description="Gathering of seven autonomous mobile robots on triangular grids "
        "(reproduction of Shibata et al., 2021).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every subcommand (parents=[common]).
    common = argparse.ArgumentParser(add_help=False)
    obs_group = common.add_argument_group("observability")
    obs_group.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="write the run manifest + merged metrics snapshot to FILE as JSON on exit",
    )
    obs_group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append structured span/event records to FILE as JSON Lines",
    )
    obs_group.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured logging on stderr at this level",
    )
    obs_group.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON Lines (implies --log-level info unless set)",
    )

    p_enum = sub.add_parser(
        "enumerate",
        parents=[common],
        help="count connected initial configurations",
        epilog="exit codes: 0 always (errors raise non-zero via argparse)",
    )
    p_enum.add_argument(
        "--size", type=_positive_int, default=7, help="number of robots (default 7)"
    )

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="exhaustive verification (experiment E2)",
        epilog="exit codes: 0 every configuration gathered, 1 otherwise",
    )
    p_verify.add_argument(
        "--algorithm",
        default="shibata-visibility2",
        choices=available_algorithms(),
        help="algorithm to verify",
    )
    p_verify.add_argument("--size", type=_positive_int, default=7)
    p_verify.add_argument("--max-rounds", type=_positive_int, default=1000)
    p_verify.add_argument("--workers", type=_positive_int, default=1)
    p_verify.add_argument(
        "--kernel",
        default="packed",
        choices=KERNELS,
        help="simulation kernel: table = vectorized successor-table sweep "
        "(byte-identical, fastest)",
    )
    p_verify.add_argument("--json", action="store_true", help="emit the full JSON report")

    p_trace = sub.add_parser(
        "trace",
        parents=[common],
        help="trace one execution (experiment E4)",
        epilog="exit codes: 0 the execution gathered, 1 otherwise",
    )
    p_trace.add_argument("--algorithm", default="shibata-visibility2", choices=available_algorithms())
    p_trace.add_argument(
        "--config",
        default="figure54",
        help="built-in configuration name (%s) or a JSON list of [q, r] pairs"
        % ", ".join(sorted(_BUILTIN_CONFIGS)),
    )
    p_trace.add_argument("--max-rounds", type=_positive_int, default=200)
    p_trace.add_argument("--ascii", action="store_true", help="ASCII-only symbols")
    p_trace.add_argument("--json", action="store_true", help="emit the trace as JSON")

    p_r1 = sub.add_parser(
        "range1",
        parents=[common],
        help="visibility-range-1 impossibility (experiment E3)",
        epilog="exit codes: 0 impossibility refutation complete, 1 search budget exhausted",
    )
    p_r1.add_argument("--max-nodes", type=int, default=5_000, help="search budget")
    p_r1.add_argument("--skip-search", action="store_true", help="only evaluate candidate tables")

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="algorithm × scheduler × max-rounds ablation grid",
        epilog="exit codes: 0 the grid ran to completion (regardless of outcomes)",
    )
    p_sweep.add_argument(
        "--algorithms",
        default="shibata-visibility2",
        help="comma-separated algorithm names (default: shibata-visibility2)",
    )
    p_sweep.add_argument(
        "--schedulers",
        default="fsync",
        help="comma-separated scheduler specs, e.g. fsync,round-robin:2,random-subset:0.5:1",
    )
    p_sweep.add_argument(
        "--max-rounds-grid",
        type=_positive_int_list,
        default="1000",
        help="comma-separated round budgets (default: 1000)",
    )
    p_sweep.add_argument(
        "--size", type=_positive_int, default=7, help="number of robots (default 7)"
    )
    p_sweep.add_argument(
        "--sample",
        type=_positive_int,
        default=1,
        help="keep every N-th configuration of the enumeration (default 1 = all)",
    )
    p_sweep.add_argument("--workers", type=_positive_int, default=1)
    p_sweep.add_argument(
        "--kernel",
        default="packed",
        choices=KERNELS,
        help="simulation kernel (table batches FSYNC cells through the "
        "successor table)",
    )
    p_sweep.add_argument("--json", action="store_true", help="emit the grid as JSON")

    p_explore = sub.add_parser(
        "explore",
        parents=[common],
        help="exhaustive transition-graph model checking",
        epilog="exit codes: 0 every root is gathered or provably safe "
        "(the Theorem 2 shape), 1 otherwise",
    )
    p_explore.add_argument(
        "--algorithm",
        default="shibata-visibility2",
        choices=available_algorithms(),
        help="algorithm whose rules define the transition edges",
    )
    p_explore.add_argument(
        "--mode",
        default="fsync",
        choices=MODES,
        help="edge semantics: fsync (one edge per vertex) or ssync "
        "(one edge per adversarial activation choice)",
    )
    p_explore.add_argument(
        "--size", type=_positive_int, default=7, help="number of robots (default 7)"
    )
    p_explore.add_argument(
        "--max-nodes",
        type=_positive_int,
        default=None,
        help="stop after expanding this many vertices (default: exhaustive)",
    )
    p_explore.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for --kernel packed (default 1); --kernel table "
        "expands every level in this process with array passes",
    )
    p_explore.add_argument(
        "--kernel",
        default="packed",
        choices=("packed", "table"),
        help="vertex expansion kernel: table slices the vectorized successor "
        "table instead of re-running Look-Compute per vertex",
    )
    p_explore.add_argument(
        "--no-witnesses", action="store_true", help="skip counterexample extraction"
    )
    p_explore.add_argument(
        "--include-nodes",
        action="store_true",
        help="with --json: include the per-vertex classification (large)",
    )
    p_explore.add_argument("--ascii", action="store_true", help="ASCII-only symbols")
    p_explore.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_explore.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the JSON report to FILE (keeps stdout free of JSON; "
        "implies the JSON payload regardless of --json)",
    )

    p_synth = sub.add_parser(
        "synth",
        parents=[common],
        help="counterexample-guided rule synthesis (repair toward Theorem 2)",
        epilog="exit codes: 0 coverage strictly improved and the result passed "
        "SSYNC validation (or validation was skipped), 1 no improvement found, "
        "2 improvement found but SSYNC validation failed",
    )
    p_synth.add_argument(
        "--base",
        default="shibata-visibility2",
        choices=available_algorithms(),
        help="base algorithm whose stays the synthesized rules may override",
    )
    p_synth.add_argument(
        "--size", type=_positive_int, default=7, help="number of robots (default 7)"
    )
    p_synth.add_argument(
        "--max-iterations", type=int, default=8, help="CEGIS iterations (default 8)"
    )
    p_synth.add_argument(
        "--chain-budget",
        type=int,
        default=600,
        help="stuck points the chain search may expand per counterexample",
    )
    p_synth.add_argument(
        "--max-depth", type=int, default=30, help="maximum chain length (default 30)"
    )
    p_synth.add_argument(
        "--branch", type=int, default=6, help="candidates tried per stuck point"
    )
    p_synth.add_argument(
        "--allow-amend",
        action="store_true",
        help="open the amending repair space: learned override rules may "
        "replace printed moves (or force stays) at mid-move failure views, "
        "guarded by the won-root regression gate",
    )
    p_synth.add_argument(
        "--amend-branch",
        type=int,
        default=10,
        help="amendment candidates tried per pre-failure point (default 10)",
    )
    p_synth.add_argument(
        "--amend-budget",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of committed override rules (default: unlimited)",
    )
    p_synth.add_argument(
        "--seed-ruleset",
        default=None,
        metavar="FILE",
        help="seed the search from an exact-view rule set JSON "
        "(e.g. the committed additive repair), or the literal name "
        "'learned' for the committed shibata-visibility2 repair",
    )
    p_synth.add_argument(
        "--kernel",
        default="auto",
        choices=("auto", "packed", "table"),
        help="verification/replay kernel: table evaluates every candidate "
        "on the vectorized successor table with delta-aware invalidation; "
        "auto picks table (default)",
    )
    p_synth.add_argument(
        "--no-ssync-validate",
        action="store_true",
        help="skip the adversarial SSYNC validation pass",
    )
    p_synth.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="write the resumable search state to FILE after every iteration",
    )
    p_synth.add_argument(
        "--resume",
        action="store_true",
        help="resume from an existing --checkpoint file",
    )
    p_synth.add_argument(
        "--save-ruleset",
        default=None,
        metavar="FILE",
        help="save the synthesized rule set as JSON",
    )
    p_synth.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the JSON result (summary + progress + rule set) to FILE",
    )
    p_synth.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_synth.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration progress lines"
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[common],
        help="persistent async query service over precomputed successor tables",
        epilog="exit codes: 0 clean shutdown (SIGTERM/SIGINT drained), "
        "1 startup failed",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=8123, help="TCP port (default 8123; 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names to load tables for "
        "(default: shibata-visibility2 and its synthesized repair)",
    )
    p_serve.add_argument(
        "--sizes",
        default=None,
        help="robot counts to preload, as a range or list: '2-7' or '2,3,7' "
        "(default 2-7)",
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="server processes sharing the port via SO_REUSEPORT; tables are "
        "built once and shared as memory-mapped table stores (default 1)",
    )
    p_serve.add_argument(
        "--table-cache",
        default=None,
        metavar="DIR",
        help="directory of table stores; warm starts map the stored arrays "
        "instead of rebuilding (also: REPRO_TABLE_CACHE)",
    )

    return parser


def _parse_configuration(spec: str) -> Configuration:
    if spec in _BUILTIN_CONFIGS:
        return _BUILTIN_CONFIGS[spec]()
    try:
        pairs = json.loads(spec)
        return Configuration((int(q), int(r)) for q, r in pairs)
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"cannot parse configuration {spec!r}: {exc}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    count = count_connected_configurations(args.size)
    print(f"connected configurations of {args.size} robots (up to translation): {count}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_all_configurations(
        algorithm_name=args.algorithm,
        size=args.size,
        max_rounds=args.max_rounds,
        workers=args.workers,
        kernel=args.kernel,
    )
    if args.json:
        print(dumps(report_to_dict(report)))
    else:
        summary = report.summary()
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0 if report.all_gathered else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    algorithm = create_algorithm(args.algorithm)
    initial = _parse_configuration(args.config)
    trace = run_execution(initial, algorithm, max_rounds=args.max_rounds)
    if args.json:
        print(dumps(trace_to_dict(trace, include_rounds=True)))
    else:
        print(render_trace(trace, unicode_symbols=not args.ascii))
    return 0 if trace.succeeded else 1


def _cmd_range1(args: argparse.Namespace) -> int:
    print("candidate visibility-range-1 rule tables (Theorem 1 predicts all fail):")
    for table in CANDIDATE_TABLES:
        algorithm = RuleTableAlgorithm(table)
        failures = 0
        total = 0
        for config in default_gadget_suite():
            total += 1
            trace = run_execution(config, algorithm, max_rounds=500)
            if not trace.succeeded:
                failures += 1
        print(f"  {table.name:>18}: fails on {failures}/{total} gadget configurations")
    if args.skip_search:
        return 0
    result = search_rule_space(max_nodes=args.max_nodes)
    print(
        "rule-space search: refuted=%s nodes=%d budget_exhausted=%s"
        % (result.refuted, result.nodes_explored, result.budget_exhausted)
    )
    return 0 if result.refuted else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    algorithms = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    schedulers = [spec.strip() for spec in args.schedulers.split(",") if spec.strip()]
    unknown = [name for name in algorithms if name not in available_algorithms()]
    if unknown:
        raise SystemExit(f"unknown algorithms: {unknown}; available: {available_algorithms()}")
    from .core.scheduler import scheduler_from_spec

    for spec in schedulers:
        try:
            scheduler_from_spec(spec)
        except ValueError as exc:
            raise SystemExit(str(exc))

    from .enumeration.polyhex import enumerate_connected_configurations

    configurations = enumerate_connected_configurations(args.size)[:: args.sample]
    cells = run_sweep(
        algorithms,
        scheduler_specs=schedulers,
        max_rounds_grid=args.max_rounds_grid,
        configurations=configurations,
        workers=args.workers,
        kernel=args.kernel,
    )
    if args.json:
        print(dumps([cell.summary() for cell in cells]))
    else:
        for cell in cells:
            summary = cell.summary()
            outcomes = ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items())
            print(
                f"{summary['algorithm']} | {summary['scheduler']} | "
                f"max_rounds={summary['max_rounds']}: "
                f"{summary['gathered']}/{summary['configurations']} gathered "
                f"({summary['success_rate']:.3f}), mean_rounds={summary['mean_rounds']}, "
                f"[{outcomes}] in {summary['seconds']}s"
            )
    return 0


def _write_output(path: str, payload: object) -> None:
    """Write a JSON payload to ``path`` (never interleaved with stdout text)."""
    with open(path, "w") as handle:
        handle.write(dumps(payload))
        handle.write("\n")


def _cmd_explore(args: argparse.Namespace) -> int:
    report = explore(
        algorithm_name=args.algorithm,
        size=args.size,
        mode=args.mode,
        max_nodes=args.max_nodes,
        workers=args.workers,
        with_witnesses=not args.no_witnesses,
        kernel=args.kernel,
    )
    payload = None
    if args.json or args.output:
        payload = exploration_to_dict(
            report,
            include_witnesses=not args.no_witnesses,
            include_nodes=args.include_nodes,
        )
    if args.output:
        _write_output(args.output, payload)
    if args.json and not args.output:
        # JSON on stdout: the payload is the only thing printed.
        print(dumps(payload))
    elif not args.json:
        for key, value in report.summary().items():
            print(f"{key}: {value}")
        for kind, witness in sorted(report.witnesses.items()):
            print(f"\n=== minimal {kind} witness ({witness.num_rounds} round(s)) ===")
            print(render_witness(witness, unicode_symbols=not args.ascii))
    return 0 if report.all_roots_gather else 1


def _cmd_synth(args: argparse.Namespace) -> int:
    from .io.serialization import CheckpointSchemaError
    from .synth import learned_ruleset, load_ruleset, save_ruleset, synthesize

    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    if args.resume and args.seed_ruleset:
        raise SystemExit(
            "--seed-ruleset and --resume are mutually exclusive: the checkpoint "
            "replaces the whole search state, so the seed would be discarded"
        )
    seed = None
    if args.seed_ruleset == "learned":
        seed = learned_ruleset()
    elif args.seed_ruleset is not None:
        try:
            seed = load_ruleset(args.seed_ruleset)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load --seed-ruleset {args.seed_ruleset!r}: {exc}")
    progress = None
    if not args.quiet:
        # Progress goes to stderr so --json stdout stays a single JSON payload.
        progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    try:
        result = synthesize(
            base_name=args.base,
            size=args.size,
            max_iterations=args.max_iterations,
            chain_budget=args.chain_budget,
            max_depth=args.max_depth,
            branch=args.branch,
            ssync_validate=not args.no_ssync_validate,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            progress=progress,
            allow_amend=args.allow_amend,
            amend_branch=args.amend_branch,
            amend_budget=args.amend_budget,
            seed_ruleset=seed,
            kernel=args.kernel,
        )
    except (FileNotFoundError, CheckpointSchemaError) as exc:
        raise SystemExit(str(exc))
    payload = synthesis_to_dict(result)
    payload["progress"] = synth_progress(result)
    if args.save_ruleset:
        save_ruleset(result.ruleset, args.save_ruleset)
    if args.output:
        _write_output(args.output, payload)
    if args.json and not args.output:
        print(dumps(payload))
    elif not args.json:
        for key, value in payload["progress"].items():
            print(f"{key}: {value}")
    if not result.improved:
        return 1
    if result.validated is False:
        return 2
    return 0


def _parse_sizes(spec: Optional[str]) -> tuple:
    """Parse a ``--sizes`` spec: ``'2-7'``, ``'2,3,7'`` or a mix of both."""
    if spec is None:
        from .serve import DEFAULT_SIZES

        return DEFAULT_SIZES
    sizes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part:
                low, high = part.split("-", 1)
                sizes.extend(range(int(low), int(high) + 1))
            else:
                sizes.append(int(part))
        except ValueError:
            raise SystemExit(f"cannot parse --sizes {spec!r}: bad part {part!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise SystemExit(f"--sizes {spec!r} must name positive robot counts")
    return tuple(sorted(set(sizes)))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import DEFAULT_ALGORITHMS, GatheringService, serve_forever

    if args.algorithms is None:
        algorithms = DEFAULT_ALGORITHMS
    else:
        algorithms = tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        )
        unknown = [name for name in algorithms if name not in available_algorithms()]
        if unknown:
            raise SystemExit(
                f"unknown algorithms: {unknown}; available: {available_algorithms()}"
            )
    if args.workers > 1 and args.port == 0:
        raise SystemExit("--workers > 1 needs a fixed --port (SO_REUSEPORT)")
    service = GatheringService(
        algorithms=algorithms,
        sizes=_parse_sizes(args.sizes),
        publish=args.workers > 1,
        table_cache=args.table_cache,
    )

    def ready(port: int) -> None:
        # The line tests and the CI smoke job wait for; flushed so pipes see it.
        print(f"serving on http://{args.host}:{port}", flush=True)

    try:
        asyncio.run(
            serve_forever(
                service,
                host=args.host,
                port=args.port,
                workers=args.workers,
                ready=ready,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal handlers usually win
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the console script and ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "trace": _cmd_trace,
        "range1": _cmd_range1,
        "sweep": _cmd_sweep,
        "explore": _cmd_explore,
        "synth": _cmd_synth,
        "serve": _cmd_serve,
    }
    new_run_id()  # one run id per invocation, correlating logs/spans/manifest
    if args.log_level or args.log_json:
        setup_logging(level=args.log_level or "info", json_lines=args.log_json)
    if args.trace:
        configure_sink(args.trace)
    status: Optional[int] = None
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        status = handlers[args.command](args)
        return status
    finally:
        if args.telemetry:
            manifest = run_manifest(
                command=args.command,
                args={k: v for k, v in sorted(vars(args).items()) if k != "command"},
                wall_seconds=time.perf_counter() - wall_start,
                cpu_seconds=time.process_time() - cpu_start,
                exit_status=status,
            )
            write_telemetry(args.telemetry, manifest)
        close_sink()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
