"""Command-line interface.

``python -m repro.cli <command>`` (or the ``repro`` console script):

* ``list``        — show the experiment registry;
* ``run <ids>``   — regenerate tables/figures, printing the series;
* ``simulate``    — run one ad-hoc scenario through :mod:`repro.api`
  (``--trace FILE`` enables observability and exports the JSONL trace;
  ``--partition``/``--byzantine``/``--managers`` script chaos windows;
  ``--checkpoint FILE --checkpoint-every N`` writes crash-safe
  checkpoints and ``--resume FILE`` continues one bit-identically);
* ``serve``       — the streaming reputation service of :mod:`repro.serve`:
  ``--record`` captures a scenario's batch run as a replayable event
  stream, ``--events`` streams events (file or stdin) through a live
  service, ``--resume`` continues from a mid-stream service checkpoint,
  and ``--listen`` exposes the line-JSON socket endpoint (a
  ``{"query": "metrics"}`` line answers with Prometheus exposition);
  ``--metrics FILE`` appends a JSONL telemetry snapshot per watermark
  and ``--health-report FILE`` evaluates the default SLOs live;
* ``obs``         — observability tooling: ``obs report`` validates an
  exported trace and prints the phases/metrics/audit report (the bare
  ``obs FILE`` spelling still works), ``obs health`` replays SLO rules
  over a recorded telemetry series, ``obs top`` prints the per-phase
  self/cumulative hot-path table, and ``obs export`` renders the last
  metrics snapshot as Prometheus text exposition;
* ``trace``       — generate a synthetic Overstock trace to a JSON file;
* ``analyze``     — run the Section-3 analyses over a saved trace file;
* ``qa``          — the correctness tooling of :mod:`repro.qa`:
  ``qa record`` / ``qa check`` manage the golden regression traces,
  ``qa fuzz`` runs the stateful invariant fuzzer, ``qa diff`` runs
  every backend on the batched engine and the scalar oracle, and
  ``qa reconverge`` runs the chaos reconvergence harness.

``list``/``run``/``simulate`` all go through the :mod:`repro.api` facade,
so the CLI exercises the same audited path as the example scripts.
Wall-clock timings printed by ``run``/``simulate`` use
:func:`time.perf_counter` — the same monotonic clock as the tracer.

Exit codes are contractual so scripts and CI can branch on *why* a
command failed:

* ``0`` — success;
* ``1`` — the command ran, but its check failed (golden divergence,
  fuzz invariant violation, differential mismatch, reconvergence miss);
* ``2`` — configuration error: bad flags or flag values, missing or
  malformed input files — the run never started (argparse uses the
  same code for unparseable command lines);
* ``3`` — runtime error: the run started and then failed (I/O mid-run,
  malformed event mid-stream, unexpected internal errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_CONFIG",
    "EXIT_RUNTIME",
]

#: The command succeeded.
EXIT_OK = 0
#: The command ran to completion but its check/assertion failed.
EXIT_FAILURE = 1
#: Bad configuration — flags, values, or input files; nothing ran.
EXIT_CONFIG = 2
#: The run started and then failed.
EXIT_RUNTIME = 3

#: Experiments that run on the trace substrate and take no run/cycle knobs.
TRACE_EXPERIMENTS = frozenset({"fig1", "fig2", "fig3", "fig4"})


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SocialTrust reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment registry")

    run = sub.add_parser("run", help="regenerate tables/figures")
    run.add_argument("experiments", nargs="+", help="experiment ids, or 'all'")
    run.add_argument("--runs", type=int, default=2)
    run.add_argument("--cycles", type=int, default=25)
    run.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser(
        "simulate", help="run one ad-hoc scenario via the repro.api facade"
    )
    sim.add_argument("--nodes", type=int, default=200)
    sim.add_argument("--pretrusted", type=int, default=9)
    sim.add_argument("--colluders", type=int, default=30)
    sim.add_argument(
        "--system",
        default="EigenTrust+SocialTrust",
        help="reputation stack, e.g. EigenTrust or eBay+SocialTrust",
    )
    sim.add_argument(
        "--collusion", default="pcm", choices=["none", "pcm", "mcm", "mmm"]
    )
    sim.add_argument(
        "--colluder-b",
        type=float,
        default=0.2,
        help="colluders' probability of good behaviour B",
    )
    sim.add_argument("--cycles", type=int, default=25)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="enable observability, export the JSONL trace to FILE and "
        "print the phases/metrics/audit report",
    )
    sim.add_argument(
        "--managers",
        type=int,
        default=0,
        help="resource managers for distributed SocialTrust (0 = centralised)",
    )
    sim.add_argument(
        "--partition",
        action="append",
        default=None,
        metavar="START:HEAL",
        help="scripted network-partition window in simulation cycles "
        "(repeatable)",
    )
    sim.add_argument(
        "--byzantine",
        action="append",
        default=None,
        metavar="MGR:START[:HEAL]",
        help="scripted Byzantine window for manager MGR (repeatable; "
        "requires --managers)",
    )
    sim.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a crash-safe checkpoint to FILE (see --checkpoint-every)",
    )
    sim.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N simulation cycles (requires --checkpoint)",
    )
    sim.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="FILE",
        help="resume from a checkpoint file; the scenario comes from its "
        "header, so other scenario flags are ignored",
    )

    serve = sub.add_parser(
        "serve", help="streaming reputation service (record / stream / resume)"
    )
    serve.add_argument("--nodes", type=int, default=100)
    serve.add_argument("--pretrusted", type=int, default=5)
    serve.add_argument("--colluders", type=int, default=15)
    serve.add_argument(
        "--system",
        default="EigenTrust+SocialTrust",
        help="reputation stack, e.g. EigenTrust or eBay+SocialTrust",
    )
    serve.add_argument(
        "--collusion", default="pcm", choices=["none", "pcm", "mcm", "mmm"]
    )
    serve.add_argument("--colluder-b", type=float, default=0.2)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--cycles",
        type=int,
        default=6,
        help="simulation cycles to capture with --record",
    )
    serve.add_argument(
        "--record",
        type=Path,
        default=None,
        metavar="FILE",
        help="record the scenario's batch run as a replayable event stream",
    )
    serve.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="stream events from FILE ('-' = stdin) through a live service; "
        "a stream header's scenario spec overrides the scenario flags",
    )
    serve.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="FILE",
        help="resume a service from a mid-stream checkpoint, then stream "
        "--events if given",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the line-JSON socket endpoint until interrupted",
    )
    serve.add_argument(
        "--interval-events",
        type=int,
        default=None,
        metavar="N",
        help="auto-watermark: run the reputation update every N mutation "
        "events (streams with explicit watermarks don't need this)",
    )
    serve.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="FILE",
        help="service checkpoint target (see --snapshot-every)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N watermarks (requires --snapshot)",
    )
    serve.add_argument(
        "--verify-snapshot",
        action="store_true",
        help="after streaming: write a final snapshot, reload it into a "
        "fresh service, and require bit-identical reputations",
    )
    serve.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the service stats (throughput, latency percentiles, "
        "backpressure counters) as JSON to FILE",
    )
    serve.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="FILE",
        help="append a JSONL registry snapshot to FILE at each watermark "
        "(the telemetry time series; health transitions share the file)",
    )
    serve.add_argument(
        "--metrics-every",
        type=int,
        default=1,
        metavar="N",
        help="subsample the telemetry series to every N-th watermark",
    )
    serve.add_argument(
        "--health-report",
        type=Path,
        default=None,
        metavar="FILE",
        help="evaluate the default service SLOs live and write the final "
        "health report (state, rules, transitions) as JSON to FILE",
    )

    obs = sub.add_parser(
        "obs", help="trace reports, SLO health evaluation, hot-path profile"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report", help="validate a JSONL trace and print the full report"
    )
    obs_report.add_argument("input", type=Path, help="JSONL trace path")

    obs_health = obs_sub.add_parser(
        "health", help="evaluate SLO rules over a recorded telemetry series"
    )
    obs_health.add_argument("input", type=Path, help="telemetry JSONL path")
    obs_health.add_argument(
        "--query-p99", type=float, default=0.005, metavar="SECONDS",
        help="query latency p99 ceiling",
    )
    obs_health.add_argument(
        "--min-events-per-sec", type=float, default=0.0, metavar="RATE",
        help="sustained ingest floor (0 disables the rule)",
    )
    obs_health.add_argument(
        "--queue-depth", type=float, default=6144, metavar="N",
        help="ingestion queue depth ceiling",
    )
    obs_health.add_argument(
        "--shed-rate", type=float, default=0.01, metavar="FRACTION",
        help="shed events per mutation event ceiling (critical)",
    )
    obs_health.add_argument(
        "--flood-share", type=float, default=0.5, metavar="FRACTION",
        help="per-interval top-rater share ceiling",
    )
    obs_health.add_argument(
        "--report", type=Path, default=None, metavar="FILE",
        help="also write the final health report as JSON to FILE",
    )
    obs_health.add_argument(
        "--fail-on",
        default="never",
        choices=["never", "degraded", "critical"],
        help="exit non-zero when the final state is at least this bad",
    )

    obs_top = obs_sub.add_parser(
        "top", help="per-phase self/cumulative hot-path table from a trace"
    )
    obs_top.add_argument("input", type=Path, help="JSONL trace path")
    obs_top.add_argument(
        "-n", "--top", type=int, default=10, help="rows to show"
    )

    obs_export = obs_sub.add_parser(
        "export",
        help="render the last metrics snapshot of a trace/telemetry file "
        "as Prometheus text exposition",
    )
    obs_export.add_argument("input", type=Path, help="JSONL path")
    obs_export.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the exposition text to FILE instead of stdout",
    )

    trace = sub.add_parser("trace", help="generate a synthetic trace file")
    trace.add_argument("output", type=Path, help="output JSON path")
    trace.add_argument("--users", type=int, default=2500)
    trace.add_argument("--months", type=int, default=24)
    trace.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser("analyze", help="run Section-3 analyses on a trace file")
    analyze.add_argument("input", type=Path, help="trace JSON path")

    qa = sub.add_parser("qa", help="golden traces, invariant fuzzing, differential runs")
    qa_sub = qa.add_subparsers(dest="qa_command", required=True)

    record = qa_sub.add_parser("record", help="record golden scenario traces")
    record.add_argument(
        "--golden-dir", type=Path, default=None, help="golden directory (default: tests/golden)"
    )
    record.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="record only this scenario (repeatable; default: all)",
    )
    record.add_argument(
        "--update",
        action="store_true",
        help="overwrite existing goldens (the numbers changed on purpose)",
    )

    check = qa_sub.add_parser("check", help="replay and diff the golden traces")
    check.add_argument("--golden-dir", type=Path, default=None)
    check.add_argument("--scenario", action="append", default=None, metavar="NAME")
    check.add_argument(
        "--mode",
        default="strict",
        choices=["strict", "tolerance"],
        help="strict = bit-identical; tolerance = isclose(rtol, atol)",
    )
    check.add_argument("--rtol", type=float, default=1e-9)
    check.add_argument("--atol", type=float, default=1e-12)
    check.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the divergence report to FILE (CI artifact)",
    )

    fuzz = qa_sub.add_parser("fuzz", help="run the stateful invariant fuzzer")
    fuzz.add_argument("--steps", type=int, default=200)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--harness", default="both", choices=["engine", "manager", "both"]
    )

    diff = qa_sub.add_parser(
        "diff",
        help="differential sweep: every backend on the batched engine and "
        "the scalar oracle",
    )
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--cycles", type=int, default=4)
    diff.add_argument(
        "--collusion", default="pcm", choices=["none", "pcm", "mcm", "mmm"]
    )

    reconv = qa_sub.add_parser(
        "reconverge",
        help="chaos reconvergence: inject + heal, assert recovery per backend",
    )
    reconv.add_argument("--seed", type=int, default=0)
    reconv.add_argument("--cycles", type=int, default=12)
    reconv.add_argument("--tolerance", type=float, default=0.02)
    reconv.add_argument(
        "--budget",
        type=int,
        default=5,
        help="max cycles after the heal for the error to settle below tolerance",
    )
    reconv.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (CI artifact)",
    )
    return parser


def _cmd_list() -> int:
    from repro.api import list_experiments

    for name in list_experiments():
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import list_experiments, run_experiment

    wanted = (
        list_experiments() if args.experiments == ["all"] else args.experiments
    )
    for experiment_id in wanted:
        start = perf_counter()
        if experiment_id in TRACE_EXPERIMENTS:
            result = run_experiment(experiment_id, seed=args.seed)
        else:
            result = run_experiment(
                experiment_id,
                n_runs=args.runs,
                simulation_cycles=args.cycles,
                seed=args.seed,
            )
        print(result.describe())
        print(f"  [{perf_counter() - start:.1f}s]\n")
    return 0


def _parse_partition(text: str) -> dict:
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        return {"start_cycle": int(parts[0]), "heal_cycle": int(parts[1])}
    except ValueError:
        raise ValueError(
            f"--partition expects integer START:HEAL, got {text!r}"
        ) from None


def _parse_byzantine(text: str) -> dict:
    parts = text.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        return {
            "manager_id": int(parts[0]),
            "start_cycle": int(parts[1]),
            "heal_cycle": int(parts[2]) if len(parts) == 3 else None,
        }
    except ValueError:
        raise ValueError(
            f"--byzantine expects integer MGR:START[:HEAL], got {text!r}"
        ) from None


def _drive_with_checkpoints(
    simulation,
    total_cycles: int,
    args: argparse.Namespace,
    build: dict,
    seed: int,
) -> None:
    """Run ``simulation`` up to ``total_cycles``, checkpointing as asked."""
    from repro.chaos import save_checkpoint

    every = args.checkpoint_every
    target = args.checkpoint if args.checkpoint is not None else args.resume
    while simulation.cycles_run < total_cycles:
        simulation.run_simulation_cycle()
        if every and target is not None and simulation.cycles_run % every == 0:
            save_checkpoint(simulation, target, build=build, seed=seed)
            print(f"checkpoint @ cycle {simulation.cycles_run}: {target}")


def _scenario_result(scenario):
    from repro.api import ScenarioResult

    metrics = scenario.world.simulation.metrics
    return ScenarioResult(
        config=scenario.config,
        seed=scenario.seed,
        run_index=scenario.run_index,
        world=scenario.world,
        metrics=metrics,
        reputations=metrics.final_reputations(),
        history=metrics.reputation_history(),
        observability=scenario.world.observability,
    )


def _cmd_simulate_resume(args: argparse.Namespace) -> int:
    from repro.chaos import load_checkpoint, resume_scenario

    try:
        header, _ = load_checkpoint(args.resume)
        scenario = resume_scenario(args.resume)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot resume {args.resume}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    simulation = scenario.world.simulation
    total = int(header["build"].get("simulation_cycles", args.cycles))
    print(f"resumed {args.resume} at cycle {simulation.cycles_run}/{total}")
    start = perf_counter()
    _drive_with_checkpoints(
        simulation, total, args, header["build"], header["seed"]
    )
    print(_scenario_result(scenario).summary())
    print(f"  [{perf_counter() - start:.1f}s]")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import run_scenario

    if args.checkpoint_every and args.checkpoint is None and args.resume is None:
        print("error: --checkpoint-every requires --checkpoint", file=sys.stderr)
        return EXIT_CONFIG
    if args.resume is not None:
        return _cmd_simulate_resume(args)
    if args.trace is not None:
        # Pre-flight the export path: a multi-minute simulation that dies
        # at the final write is the worst possible failure mode.
        parent = args.trace.resolve().parent
        if not parent.is_dir():
            print(f"error: trace directory does not exist: {parent}", file=sys.stderr)
            return EXIT_CONFIG
        if not os.access(parent, os.W_OK):
            print(f"error: trace directory is not writable: {parent}", file=sys.stderr)
            return EXIT_CONFIG
    chaos = None
    if args.partition or args.byzantine:
        try:
            chaos = {
                "partitions": [_parse_partition(p) for p in args.partition or ()],
                "byzantines": [_parse_byzantine(b) for b in args.byzantine or ()],
            }
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    start = perf_counter()
    if chaos is not None or args.managers or args.checkpoint is not None:
        # Chaos / checkpoint path: drive the cycles by hand so the run
        # can be checkpointed (and later resumed) at cycle boundaries.
        from repro.api import build_scenario

        build = dict(
            n_nodes=args.nodes,
            n_pretrusted=args.pretrusted,
            n_colluders=args.colluders,
            system=args.system,
            collusion=args.collusion,
            colluder_b=args.colluder_b,
            simulation_cycles=args.cycles,
            n_managers=args.managers,
        )
        if chaos is not None:
            build["chaos"] = chaos
        try:
            scenario = build_scenario(
                seed=args.seed,
                observability=args.trace is not None,
                **build,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        _drive_with_checkpoints(
            scenario.world.simulation, args.cycles, args, build, args.seed
        )
        result = _scenario_result(scenario)
    else:
        result = run_scenario(
            n_nodes=args.nodes,
            n_pretrusted=args.pretrusted,
            n_colluders=args.colluders,
            system=args.system,
            collusion=args.collusion,
            colluder_b=args.colluder_b,
            simulation_cycles=args.cycles,
            seed=args.seed,
            observability=args.trace is not None,
        )
    print(result.summary())
    print(f"  [{perf_counter() - start:.1f}s]")
    if args.trace is not None:
        obs = result.observability
        assert obs is not None
        n_lines = obs.export_jsonl(args.trace)
        print(f"wrote {args.trace}: {n_lines} events")
        print()
        print(obs.report(title=f"observability report: {args.trace}"))
    return 0


def _serve_spec_from_args(args: argparse.Namespace):
    from repro.api import ScenarioSpec

    return ScenarioSpec.from_kwargs(
        system=args.system,
        collusion=args.collusion,
        seed=args.seed,
        n_nodes=args.nodes,
        n_pretrusted=args.pretrusted,
        n_colluders=args.colluders,
        colluder_b=args.colluder_b,
        simulation_cycles=args.cycles,
    )


def _serve_summary(service, elapsed: float, applied: int) -> dict:
    """Throughput/latency digest printed and written by ``serve``.

    ``applied`` is the number of mutation events applied during *this*
    run (a resumed service's restored totals must not inflate ev/s).
    """
    stats = service.stats()
    latency = stats["metrics"].get("serve.query.latency", {})
    stats["elapsed_seconds"] = elapsed
    stats["events_per_second"] = applied / elapsed if elapsed > 0 else 0.0
    stats["query_p50_seconds"] = latency.get("p50", 0.0)
    stats["query_p99_seconds"] = latency.get("p99", 0.0)
    return stats


def _serve_telemetry_finish(args: argparse.Namespace, service, telemetry_sink) -> None:
    """Flush the telemetry sink and write the final health report."""
    import json

    if telemetry_sink is not None:
        telemetry_sink.close()
        print(
            f"telemetry: {telemetry_sink.path} "
            f"({telemetry_sink.n_written} lines)"
        )
    if args.health_report is not None and service.health is not None:
        args.health_report.write_text(
            json.dumps(service.health_report(), indent=2) + "\n"
        )
        print(f"wrote {args.health_report} (health: {service.health.state})")


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.api import ScenarioSpec
    from repro.serve import (
        EventDecodeError,
        ReputationService,
        read_event_stream,
        record_scenario_events,
        write_event_stream,
    )
    from repro.serve.driver import drive_lines

    modes = [
        name
        for name, value in (
            ("--record", args.record),
            ("--events", args.events),
            ("--resume", args.resume),
            ("--listen", args.listen),
        )
        if value is not None
    ]
    if not modes:
        print(
            "error: serve needs a mode: --record, --events, --resume or --listen",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.record is not None and len(modes) > 1:
        print(
            f"error: --record cannot be combined with {modes[1]}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.snapshot_every is not None and args.snapshot is None:
        print("error: --snapshot-every requires --snapshot", file=sys.stderr)
        return EXIT_CONFIG
    if args.verify_snapshot and args.snapshot is None:
        print("error: --verify-snapshot requires --snapshot", file=sys.stderr)
        return EXIT_CONFIG
    if args.metrics_every < 1:
        print("error: --metrics-every must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.metrics_every != 1 and args.metrics is None:
        print("error: --metrics-every requires --metrics", file=sys.stderr)
        return EXIT_CONFIG

    # -- record: batch run → event stream file -------------------------------
    if args.record is not None:
        try:
            spec = _serve_spec_from_args(args)
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        start = perf_counter()
        recorded = record_scenario_events(spec, args.cycles)
        n = write_event_stream(args.record, recorded.events, spec=recorded.spec)
        print(
            f"wrote {args.record}: {n} events over {args.cycles} intervals "
            f"(n={args.nodes}) [{perf_counter() - start:.1f}s]"
        )
        return EXIT_OK

    # -- build or resume the service -----------------------------------------
    telemetry_sink = None
    if args.metrics is not None:
        from repro.obs import TelemetrySink

        telemetry_sink = TelemetrySink(args.metrics, every=args.metrics_every)
    health = None
    if args.health_report is not None or telemetry_sink is not None:
        from repro.obs import HealthMonitor, default_service_rules

        health = HealthMonitor(default_service_rules(), sink=telemetry_sink)
    service_kwargs = dict(
        interval_events=args.interval_events,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
        telemetry_sink=telemetry_sink,
        health=health,
    )
    stream_events = None
    if args.events is not None and args.events != "-":
        events_path = Path(args.events)
        if not events_path.is_file():
            print(f"error: events file not found: {events_path}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            loaded = read_event_stream(events_path)
        except EventDecodeError as exc:
            print(f"error: malformed event stream {events_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        stream_events = loaded.events
    if args.resume is not None:
        try:
            service = ReputationService.from_checkpoint(args.resume, **service_kwargs)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot resume {args.resume}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(
            f"resumed {args.resume}: {service.intervals_run} intervals, "
            f"{service.events_applied} events applied"
        )
    else:
        if args.events is not None and args.events != "-" and loaded.spec is not None:
            spec = ScenarioSpec.from_dict(loaded.spec)
        else:
            try:
                spec = _serve_spec_from_args(args)
            except (ValueError, TypeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        service = ReputationService(spec, **service_kwargs)

    # -- listen: line-JSON socket endpoint -----------------------------------
    if args.listen is not None:
        import asyncio

        from repro.serve.driver import serve_socket

        host, sep, port_text = args.listen.rpartition(":")
        try:
            if not sep or not host:
                raise ValueError
            port = int(port_text)
        except ValueError:
            print(
                f"error: --listen expects HOST:PORT, got {args.listen!r}",
                file=sys.stderr,
            )
            return EXIT_CONFIG

        async def _serve_forever() -> None:
            server = await serve_socket(service, host, port)
            bound = server.sockets[0].getsockname()
            print(
                f"serving line-JSON events on {bound[0]}:{bound[1]}",
                flush=True,
            )
            ingest = asyncio.ensure_future(service.run())
            try:
                async with server:
                    await server.serve_forever()
            finally:
                await service.stop()
                await ingest

        try:
            asyncio.run(_serve_forever())
        except KeyboardInterrupt:
            print("interrupted; service stopped")
        finally:
            _serve_telemetry_finish(args, service, telemetry_sink)
        return EXIT_OK

    # -- stream: apply events (file or stdin) --------------------------------
    applied_before = service.events_applied
    start = perf_counter()
    if args.events == "-":
        # stdin is decoded as it streams: a malformed line aborts a run
        # that is already underway, which is a runtime failure — unlike a
        # malformed --events file, which is rejected before starting.
        try:
            consumed = drive_lines(service, sys.stdin, out=sys.stdout)
        except EventDecodeError as exc:
            print(f"error: malformed event on stdin: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    elif stream_events is not None:
        consumed = service.serve_events(stream_events)
    else:
        consumed = 0
    elapsed = perf_counter() - start
    summary = _serve_summary(
        service, elapsed, service.events_applied - applied_before
    )
    print(
        f"streamed {consumed} events: {service.intervals_run} intervals, "
        f"{summary['events_per_second']:.0f} ev/s, "
        f"query p99 {summary['query_p99_seconds'] * 1e6:.1f}µs "
        f"[{elapsed:.1f}s]"
    )

    if args.snapshot is not None:
        path = service.save_snapshot(args.snapshot)
        print(f"snapshot: {path}")
        if args.verify_snapshot:
            restored = ReputationService.from_checkpoint(args.snapshot)
            if np.array_equal(restored.reputations, service.reputations) and (
                restored.intervals_run == service.intervals_run
            ):
                print("snapshot round-trip: OK (bit-identical reputations)")
            else:
                print("error: snapshot round-trip diverged", file=sys.stderr)
                return EXIT_FAILURE
    if args.report is not None:
        args.report.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.report}")
    _serve_telemetry_finish(args, service, telemetry_sink)
    return EXIT_OK


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import SchemaError, render_file_report, validate_jsonl

    try:
        counts = validate_jsonl(args.input)
    except SchemaError as exc:
        print(f"error: invalid trace {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    total = sum(counts.values())
    by_kind = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(f"validated {total} events ({by_kind or 'empty trace'})")
    print()
    print(render_file_report(args.input))
    return 0


def _cmd_obs_health(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        OK,
        CRITICAL,
        HealthMonitor,
        SchemaError,
        default_service_rules,
        read_telemetry,
    )

    try:
        snapshots = read_telemetry(args.input)
    except SchemaError as exc:
        print(f"error: invalid telemetry {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not snapshots:
        print(f"error: {args.input} holds no telemetry snapshots", file=sys.stderr)
        return EXIT_CONFIG
    monitor = HealthMonitor(
        default_service_rules(
            query_p99_ceiling=args.query_p99,
            min_events_per_sec=args.min_events_per_sec,
            queue_depth_ceiling=args.queue_depth,
            shed_rate_ceiling=args.shed_rate,
            flood_share_ceiling=args.flood_share,
        )
    )
    monitor.replay(snapshots)
    report = monitor.report()
    print(
        f"health: {report['state'].upper()} over "
        f"{report['intervals_observed']} intervals, "
        f"{len(report['transitions'])} transitions"
    )
    for event in report["transitions"]:
        scope = event["rule"] or "overall"
        print(
            f"  interval {event['interval']:>4}: {scope:<16} "
            f"{event['from']} -> {event['to']}  ({event['reason']})"
        )
    for rule in report["rules"]:
        marker = "BREACH" if rule["state"] != OK else "ok"
        value = rule["last_value"]
        rendered = "no data" if value is None else f"{value:g}"
        print(
            f"  rule {rule['name']:<16} {marker:<6} "
            f"{rule['stat']}({rule['metric']}) {rule['op']} "
            f"{rule['threshold']:g}  last={rendered}"
        )
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.report}")
    state = report["state"]
    if args.fail_on == "critical" and state == CRITICAL:
        return EXIT_FAILURE
    if args.fail_on == "degraded" and state != OK:
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from repro.obs import SchemaError, profile_file

    try:
        _, table = profile_file(args.input, top=args.top)
    except SchemaError as exc:
        print(f"error: invalid trace {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(table)
    return EXIT_OK


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import (
        SchemaError,
        parse_prometheus,
        read_jsonl,
        render_prometheus,
        validate_event,
    )

    try:
        events = read_jsonl(args.input)
    except SchemaError as exc:
        print(f"error: invalid JSONL {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    snapshot = None
    for event in events:
        try:
            kind = validate_event(event)
        except SchemaError as exc:
            print(f"error: invalid event in {args.input}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if kind in ("metrics", "telemetry"):
            snapshot = event["metrics"]
    if snapshot is None:
        print(
            f"error: {args.input} holds no metrics/telemetry snapshot",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    text = render_prometheus(snapshot)
    # Self-validate: the renderer's output must round-trip through the
    # parser, or the exporter has drifted from the format.
    parse_prometheus(text)
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {args.output}: {len(parse_prometheus(text))} families")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "health":
        return _cmd_obs_health(args)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.obs_command == "export":
        return _cmd_obs_export(args)
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import MarketplaceConfig, generate_trace
    from repro.trace.io import save_trace

    config = MarketplaceConfig(n_users=args.users, n_months=args.months)
    trace = generate_trace(config, seed=args.seed)
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.n_users} users, "
        f"{trace.n_transactions} transactions"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.trace import (
        business_network_vs_reputation,
        category_rank_distribution,
        interest_similarity_cdf,
        personal_network_vs_reputation,
        rating_stats_by_distance,
        transactions_vs_reputation,
    )
    from repro.trace.io import load_trace

    trace = load_trace(args.input)
    print(f"{trace.n_users} users, {trace.n_transactions} transactions")
    print(
        "C(reputation, business size)  ="
        f" {business_network_vs_reputation(trace).correlation:.3f}"
    )
    print(
        "C(reputation, transactions)   ="
        f" {transactions_vs_reputation(trace).correlation:.3f}"
    )
    print(
        "C(reputation, personal size)  ="
        f" {personal_network_vs_reputation(trace).correlation:.3f}"
    )
    stats = rating_stats_by_distance(trace)
    print("mean rating by hop:  ", np.round(stats.mean_rating, 2).tolist())
    print("ratings/pair by hop: ", np.round(stats.mean_ratings_per_pair, 2).tolist())
    cdf = category_rank_distribution(trace)
    print(f"top-3 category share: {cdf[2]:.2f}")
    edges, sim = interest_similarity_cdf(trace)
    print("similarity CDF:", {round(float(e), 1): round(float(s), 2) for e, s in zip(edges, sim)})
    return 0


def _cmd_qa(args: argparse.Namespace) -> int:
    from repro.qa import DEFAULT_GOLDEN_DIR, check_all, record_all, run_differential
    from repro.qa.fuzz import run_fuzz

    if args.qa_command == "record":
        golden_dir = args.golden_dir or DEFAULT_GOLDEN_DIR
        try:
            written = record_all(
                golden_dir, names=args.scenario, update=args.update
            )
        except (FileExistsError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for path in written:
            print(f"wrote {path}")
        return 0

    if args.qa_command == "check":
        golden_dir = args.golden_dir or DEFAULT_GOLDEN_DIR
        try:
            results = check_all(
                golden_dir,
                names=args.scenario,
                mode=args.mode,
                rtol=args.rtol,
                atol=args.atol,
            )
        except (FileNotFoundError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        report_lines = []
        failed = False
        for name, diff in results.items():
            status = "OK" if diff.ok else "DIVERGED"
            print(f"{name}: {status} ({args.mode})")
            report_lines.append(f"=== {name} ===")
            report_lines.append(diff.render())
            if not diff.ok:
                failed = True
                print(diff.render())
        if args.report is not None:
            args.report.write_text("\n".join(report_lines) + "\n")
            print(f"wrote {args.report}")
        return EXIT_FAILURE if failed else EXIT_OK

    if args.qa_command == "fuzz":
        start = perf_counter()
        try:
            reports = run_fuzz(
                steps=args.steps, seed=args.seed, harness=args.harness
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for report in reports:
            print(report.summary())
        print(f"  [{perf_counter() - start:.1f}s]")
        return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILURE

    if args.qa_command == "diff":
        report = run_differential(
            seed=args.seed, cycles=args.cycles, collusion=args.collusion
        )
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_FAILURE

    if args.qa_command == "reconverge":
        import json

        from repro.qa import run_reconvergence

        start = perf_counter()
        try:
            report = run_reconvergence(
                seed=args.seed,
                cycles=args.cycles,
                tolerance=args.tolerance,
                budget=args.budget,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(report.summary())
        print(f"  [{perf_counter() - start:.1f}s]")
        if args.report is not None:
            args.report.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            print(f"wrote {args.report}")
        return EXIT_OK if report.ok else EXIT_FAILURE

    raise AssertionError(f"unhandled qa command {args.qa_command!r}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "qa":
        return _cmd_qa(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, TypeError, KeyError, FileNotFoundError) as exc:
        # Bad flag values or inputs that slipped past the explicit guards:
        # the run never meaningfully started.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 — contractual exit code 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
