"""Command-line interface for the NomLoc reproduction.

Usage::

    python -m repro scenarios                 # list venues, render maps
    python -m repro locate lab 6.4 4.2        # one localization query
    python -m repro locate lab 6.4 4.2 --static --seed 7
    python -m repro experiment fig8           # run a paper experiment
    python -m repro experiment fig9 --scenario lobby
    python -m repro record lab out.json       # record a measurement campaign
    python -m repro replay out.json           # re-localize it offline
    python -m repro serve lab -n 24           # queries through the service
    python -m repro serve lab -n 6 --trace    # ... plus per-stage latency
    python -m repro serve lab --trace-out traces.jsonl
    python -m repro guard lab --faults nan-burst:0.3:AP2
    python -m repro track lab --objects 4     # streaming tracking sessions
    python -m repro gateway lab --port 8080   # HTTP/WebSocket server

Numeric flags are range-checked when parsed: a bad value exits 2 with an
``error:`` line, as a bad command line does.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _checked(cast: Callable, ok: Callable, want: str) -> Callable:
    """An argparse ``type=`` that converts one value and checks its range."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid ..."
    return parse


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")
_AT_LEAST_2 = _checked(int, lambda v: v >= 2, "at least 2")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "non-negative")
_POSITIVE = _checked(float, lambda v: v > 0.0, "positive")
_RATE = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NomLoc (ICDCS 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list built-in venues and render them")

    locate = sub.add_parser("locate", help="run one localization query")
    locate.add_argument("scenario", help="scenario name (lab, lobby)")
    locate.add_argument("x", type=float, help="object x coordinate (m)")
    locate.add_argument("y", type=float, help="object y coordinate (m)")
    locate.add_argument(
        "--static", action="store_true", help="pin the nomadic AP at home"
    )
    locate.add_argument("--seed", type=int, default=0)
    locate.add_argument(
        "--packets", type=_AT_LEAST_1, default=30, help="CSI packets per link"
    )
    locate.add_argument(
        "--no-map", action="store_true", help="skip the ASCII rendering"
    )

    experiment = sub.add_parser(
        "experiment", help="run one paper experiment and print its rows"
    )
    experiment.add_argument(
        "name",
        choices=["fig3", "fig7", "fig8", "fig9", "fig10", "baselines"],
    )
    experiment.add_argument(
        "--scenario", default="lab", help="scenario for per-venue experiments"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--repetitions", type=_AT_LEAST_1, default=3)
    experiment.add_argument(
        "--packets", type=_AT_LEAST_1, default=15, help="CSI packets per link"
    )
    experiment.add_argument(
        "--workers",
        type=_NON_NEGATIVE,
        default=0,
        help="campaign worker processes (0 = sequential; results are "
        "bit-identical for any worker count)",
    )

    record = sub.add_parser("record", help="record a measurement campaign")
    record.add_argument("scenario")
    record.add_argument("output", help="output JSON path")
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--repetitions", type=_AT_LEAST_1, default=1)
    record.add_argument("--packets", type=_AT_LEAST_1, default=30)

    replay = sub.add_parser("replay", help="re-localize a recorded campaign")
    replay.add_argument("dataset", help="dataset JSON path")
    replay.add_argument(
        "--paper-literal",
        action="store_true",
        help="disable nomadic site-pair constraints (Eq. 13 exactly)",
    )

    heatmap = sub.add_parser(
        "heatmap", help="render a localization-error heatmap of a venue"
    )
    heatmap.add_argument("scenario")
    heatmap.add_argument(
        "--static", action="store_true", help="pin the nomadic AP at home"
    )
    heatmap.add_argument("--spacing", type=_POSITIVE, default=1.5)
    heatmap.add_argument("--packets", type=_AT_LEAST_1, default=8)
    heatmap.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run seeded queries through the localization service, report "
        "per-query answers and service metrics",
    )
    _add_serving_args(serve)
    serve.add_argument(
        "-n", "--count", type=_AT_LEAST_1, default=12, help="number of queries"
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="trace every stage and print the per-stage latency table",
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="trace, and also write the raw spans as JSONL",
    )

    guard = sub.add_parser(
        "guard",
        help="measurement-fault drill: inject link corruption, report "
        "per-link verdicts and degradation-aware estimates",
    )
    guard.add_argument(
        "scenario", nargs="?", default="lab", help="scenario name (lab, lobby)"
    )
    guard.add_argument(
        "--faults",
        metavar="TYPE:RATE[:AP]",
        action="append",
        default=[],
        help="schedule a link fault (e.g. nan-burst:0.3:AP2, "
        "subcarrier-dropout:0.5, ap-outage:1.0:AP3); repeatable",
    )
    guard.add_argument(
        "--no-gate",
        action="store_true",
        help="run the injector but skip gating (the comparison arm)",
    )
    guard.add_argument("--seed", type=int, default=7)
    guard.add_argument(
        "-n", "--count", type=_AT_LEAST_1, default=6, help="number of queries"
    )
    guard.add_argument(
        "--packets", type=_AT_LEAST_1, default=24, help="CSI packets per link"
    )

    track = sub.add_parser(
        "track",
        help="streaming tracking sessions: walk seeded objects through "
        "the venue, stream their estimates into per-object filters and "
        "zone/geofence sessions, report occupancy analytics",
    )
    _add_serving_args(track)
    track.add_argument(
        "--objects",
        type=_AT_LEAST_1,
        default=3,
        help="number of tracked objects",
    )
    track.add_argument(
        "--steps", type=_AT_LEAST_2, default=10, help="fix ticks per object"
    )
    track.add_argument(
        "--zones",
        metavar="ROWSxCOLS",
        default="2x3",
        help="zone grid partition of the venue (e.g. 2x3)",
    )
    track.add_argument(
        "--filter",
        choices=("kalman", "particle"),
        default="kalman",
        help="per-object motion filter",
    )
    track.add_argument(
        "--corrupt",
        type=_RATE,
        default=0.0,
        metavar="RATE",
        help="fraction of fixes replaced by a far-off zero-confidence "
        "position (models guard-flagged corruption)",
    )
    track.add_argument(
        "--blind",
        action="store_true",
        help="ignore confidence when setting measurement noise (the "
        "confidence-blind reference arm)",
    )
    track.add_argument(
        "--durable",
        action="store_true",
        help="journal every applied fix to a WAL SQLite session store "
        "with periodic full snapshots (see repro.sessions.durable)",
    )
    track.add_argument(
        "--db",
        default="track.db",
        help="session store path for --durable (default: track.db)",
    )
    track.add_argument(
        "--checkpoint-every",
        type=_AT_LEAST_1,
        default=100,
        metavar="N",
        help="journal entries between full snapshots (--durable)",
    )
    track.add_argument(
        "--group-commit",
        type=_AT_LEAST_1,
        default=16,
        metavar="N",
        help="journal rows per fsynced transaction (--durable)",
    )
    track.add_argument(
        "--kill-after",
        type=_NON_NEGATIVE,
        default=0,
        metavar="K",
        help="SIGKILL this process after K applied fixes — the "
        "crash half of the recovery drill (needs --durable)",
    )
    track.add_argument(
        "--resume",
        action="store_true",
        help="recover from the --db store (snapshot + journal replay) "
        "and continue the run where the journal ends",
    )

    gateway = sub.add_parser(
        "gateway",
        help="network front door: serve an asyncio HTTP/WebSocket server "
        "with a durable measurement ledger over a localization cluster "
        "until SIGTERM/SIGINT",
    )
    gateway.add_argument(
        "scenario", nargs="?", default="lab", help="scenario name (lab, lobby)"
    )
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    gateway.add_argument(
        "--db",
        default="gateway.db",
        help="ledger database path (WAL sqlite; ':memory:' disables "
        "durability)",
    )
    gateway.add_argument(
        "--shards", type=int, default=1, help="cluster shards"
    )
    return parser


def _add_serving_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``serve`` and ``track`` subcommands."""
    parser.add_argument("scenario", help="scenario name (lab, lobby)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--packets", type=_AT_LEAST_1, default=8, help="CSI packets per link"
    )
    parser.add_argument(
        "--workers",
        type=_NON_NEGATIVE,
        default=0,
        help="worker processes sharing the warm caches copy-on-write "
        "(0 = inline on the calling thread)",
    )
    parser.add_argument(
        "--lp-batch",
        type=_NON_NEGATIVE,
        default=0,
        help="stack up to N queries' relaxation LPs into one batched "
        "solve (0/1 = one query per solve)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the topology/bisector caches",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 for a bad command line)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage and the error
        return exc.code
    handler = {
        "scenarios": _cmd_scenarios,
        "locate": _cmd_locate,
        "experiment": _cmd_experiment,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "heatmap": _cmd_heatmap,
        "serve": _cmd_serve,
        "guard": _cmd_guard,
        "track": _cmd_track,
        "gateway": _cmd_gateway,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .environment import SCENARIOS, get_scenario
    from .viz import render_scenario

    for name in sorted(SCENARIOS):
        scenario = get_scenario(name)
        nomadic = ", ".join(ap.name for ap in scenario.nomadic_aps)
        print(
            f"== {name}: {scenario.plan.boundary.area():.0f} m^2, "
            f"{len(scenario.aps)} APs (nomadic: {nomadic}), "
            f"{len(scenario.test_sites)} test sites, "
            f"clutter {scenario.plan.clutter_density():.0%} =="
        )
        print(render_scenario(scenario, width=72))
        print()
    return 0


def _cmd_locate(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .geometry import Point
    from .viz import render_scenario

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    truth = Point(args.x, args.y)
    if not scenario.plan.contains(truth):
        print(
            f"error: ({args.x}, {args.y}) is outside the {args.scenario} venue",
            file=sys.stderr,
        )
        return 2
    system = NomLocSystem(
        scenario,
        SystemConfig(
            packets_per_link=args.packets, use_nomadic=not args.static
        ),
    )
    estimate = system.locate(truth, np.random.default_rng(args.seed))
    mode = "static" if args.static else "nomadic"
    print(
        f"{mode} estimate: ({estimate.position.x:.2f}, "
        f"{estimate.position.y:.2f}); error "
        f"{estimate.error_to(truth):.2f} m; "
        f"{estimate.num_constraints} constraints, relaxation cost "
        f"{estimate.relaxation_cost:.3f}"
    )
    if not args.no_map:
        print(
            render_scenario(
                scenario,
                width=72,
                truth=truth,
                estimate=estimate.position,
                region=estimate.region,
            )
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .eval import (
        ExperimentConfig,
        baseline_comparison,
        fig3_delay_profiles,
        fig7_pdp_accuracy,
        fig8_slv,
        fig9_error_cdf,
        fig10_position_error,
        format_cdf_table,
        format_delay_profile,
        format_stats_table,
        format_table,
    )

    config = ExperimentConfig(
        repetitions=args.repetitions,
        packets_per_link=args.packets,
        seed=args.seed,
        workers=args.workers,
    )
    if args.name == "fig3":
        result = fig3_delay_profiles(config)
        print(format_delay_profile(result.los_profile, "LOS"))
        print()
        print(format_delay_profile(result.nlos_profile, "NLOS"))
        print(f"\nNLOS/LOS first-tap ratio: {result.first_tap_ratio():.3f}")
    elif args.name == "fig7":
        result = fig7_pdp_accuracy(args.scenario, config)
        rows = [
            [i + 1, acc] for i, acc in enumerate(result.site_accuracies)
        ]
        print(format_table(["position index", "PDP accuracy"], rows))
        print(f"\nmean accuracy: {result.mean_accuracy:.3f}")
    elif args.name == "fig8":
        result = fig8_slv(config)
        rows = [
            [scen, mode, result.slv[scen][mode], result.stats[scen][mode].mean]
            for scen in result.slv
            for mode in ("static", "nomadic")
        ]
        print(format_table(["scenario", "deployment", "SLV", "mean err(m)"], rows))
    elif args.name == "fig9":
        result = fig9_error_cdf(args.scenario, config)
        print(
            format_cdf_table(
                {"static": result.static_cdf, "nomadic": result.nomadic_cdf}
            )
        )
    elif args.name == "fig10":
        result = fig10_position_error(args.scenario, config)
        print(
            format_cdf_table(
                {f"ER={er:.0f}": cdf for er, cdf in sorted(result.cdfs.items())}
            )
        )
    else:  # baselines
        print(format_stats_table(baseline_comparison(args.scenario, config)))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .data import record_dataset
    from .environment import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    dataset = record_dataset(
        system, repetitions=args.repetitions, seed=args.seed
    )
    dataset.save(args.output)
    print(
        f"recorded {len(dataset)} queries over {len(scenario.test_sites)} "
        f"sites -> {args.output}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .core import LocalizerConfig
    from .data import Dataset, replay_dataset
    from .eval import ErrorStats

    try:
        dataset = Dataset.load(args.dataset)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = (
        LocalizerConfig(include_nomadic_pairs=False)
        if args.paper_literal
        else None
    )
    errors = replay_dataset(dataset, config)
    stats = ErrorStats.from_errors(errors)
    print(
        f"{len(errors)} queries: mean {stats.mean:.2f} m, median "
        f"{stats.median:.2f} m, p90 {stats.p90:.2f} m, SLV {stats.slv:.2f}"
    )
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .viz import render_heatmap

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario,
        SystemConfig(
            packets_per_link=args.packets, use_nomadic=not args.static
        ),
    )

    def sample(p):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [args.seed, int(p.x * 100), int(p.y * 100)]
            )
        )
        return system.localization_error(p, rng)

    mode = "static" if args.static else "nomadic"
    print(f"{mode} deployment localization error over a "
          f"{args.spacing} m grid:")
    hm = render_heatmap(
        scenario.plan, sample, grid_spacing_m=args.spacing, width=72
    )
    print(hm.text)
    print(hm.legend())
    values = list(hm.values)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    print(f"mean error {mean:.2f} m, SLV {var:.2f}")
    return 0


def _print_metrics(snapshot: dict) -> None:
    """Render a service metrics snapshot as aligned key/value lines."""
    print(
        f"  throughput {snapshot['throughput_qps']:.1f} q/s | latency "
        f"p50 {snapshot['latency_p50_s'] * 1e3:.1f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.1f} ms | "
        f"completed {snapshot['completed']}, degraded "
        f"{snapshot['degraded']}"
    )
    print(
        f"  queue wait p50 {snapshot['queue_wait_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['queue_wait_p95_s'] * 1e3:.2f} ms "
        f"(mean {snapshot['queue_wait_mean_s'] * 1e3:.2f} ms)"
    )
    topo = snapshot.get("topology_cache")
    if topo is not None:
        print(
            f"  topology cache: {topo['hits']} hits / "
            f"{topo['misses']} misses (rate {topo['hit_rate']:.0%})"
        )
    bis = snapshot.get("bisector_cache")
    if bis is not None:
        print(
            f"  bisector cache: {bis['hits']} hits / "
            f"{bis['misses']} misses (rate {bis['hit_rate']:.0%})"
        )
    spans = snapshot.get("spans")
    if spans:
        from .obs import format_stage_table

        print("  stage breakdown:")
        for line in format_stage_table(spans).splitlines():
            print(f"    {line}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import obs
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .serving import LocalizationService, ServingConfig

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    config = ServingConfig(
        max_workers=args.workers,
        lp_batch=args.lp_batch,
        cache_topologies=not args.no_cache,
        cache_bisectors=not args.no_cache,
    )
    mode = f"{args.workers} process workers" if args.workers else "sequential"
    if args.lp_batch > 1:
        mode += f", lp-batch {args.lp_batch}"
    print(f"serving {args.count} queries against {scenario.name} ({mode})")
    trace = args.trace or args.trace_out is not None
    # The tracer covers measurement too, so the stage table splits a
    # query from CSI synthesis to the merged region; ``capture`` restores
    # the caller's tracing state on the way out.
    with obs.capture() if trace else contextlib.nullcontext() as tracer:
        truths, batch = [], []
        sites = scenario.test_sites
        for i in range(args.count):
            truths.append(sites[i % len(sites)])
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, i]))
            batch.append(tuple(system.gather_anchors(truths[-1], rng)))
        # Metrics are flushed in ``finally``: a SIGINT (KeyboardInterrupt)
        # mid-batch still reports whatever the service completed, instead
        # of discarding the run's observability with the traceback.
        responses = []
        interrupted = False
        service = LocalizationService(scenario.plan.boundary, config=config)
        try:
            responses = service.batch(batch)
        except KeyboardInterrupt:
            interrupted = True
            print("interrupted; flushing service metrics", file=sys.stderr)
        finally:
            snapshot = service.metrics_snapshot()
            service.close()
    errors = []
    for truth, resp in zip(truths, responses):
        errors.append(resp.error_to(truth))
        flag = f" [degraded: {resp.reason}]" if resp.degraded else ""
        print(
            f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> "
            f"({resp.position.x:5.2f}, {resp.position.y:5.2f})  "
            f"err {errors[-1]:5.2f} m  "
            f"{resp.latency_s * 1e3:6.1f} ms{flag}"
        )
    if errors:
        print(
            f"served {len(errors)} queries, mean error "
            f"{sum(errors) / len(errors):.2f} m"
        )
    _print_metrics(snapshot)
    if args.trace_out:
        written = obs.dump_jsonl(tracer.finished(), args.trace_out)
        print(f"wrote {written} spans -> {args.trace_out}")
    return 130 if interrupted else 0


def _cmd_guard(args: argparse.Namespace) -> int:
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .guard import (
        GuardedSystem,
        InsufficientLinksError,
        LinkFaultInjector,
        LinkFaultPlan,
        parse_fault_spec,
    )

    try:
        scenario = get_scenario(args.scenario)
        plan = LinkFaultPlan(
            tuple(parse_fault_spec(spec) for spec in args.faults)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    guarded = GuardedSystem(
        system,
        injector=LinkFaultInjector(plan, seed=args.seed),
        gate=not args.no_gate,
    )
    mode = "gating OFF" if args.no_gate else "gating ON"
    print(
        f"guard drill over {scenario.name}: {len(plan.faults)} fault(s) "
        f"scheduled, {mode}, {args.count} queries"
    )
    errors = []
    unanswered = 0
    degraded_total = 0
    rejected_total = 0
    sites = scenario.test_sites
    for i in range(args.count):
        truth = sites[i % len(sites)]
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, i]))
        try:
            estimate, gate = guarded.locate_with_result(truth, rng)
        except InsufficientLinksError as exc:
            unanswered += 1
            print(f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> UNANSWERED: {exc}")
            continue
        err = estimate.error_to(truth)
        errors.append(err)
        degraded_total += len(gate.degraded)
        rejected_total += len(gate.rejected)
        flags = []
        if gate.degraded:
            flags.append(f"degraded: {', '.join(gate.degraded)}")
        if gate.rejected:
            flags.append(f"rejected: {', '.join(gate.rejected)}")
        suffix = f"  [{'; '.join(flags)}]" if flags else ""
        print(
            f"  ({truth.x:5.2f}, {truth.y:5.2f}) -> "
            f"({estimate.position.x:5.2f}, {estimate.position.y:5.2f})  "
            f"err {err:5.2f} m  confidence {estimate.confidence:.2f}"
            f"{suffix}"
        )
    if errors:
        print(
            f"{len(errors)} answered ({unanswered} unanswered), mean error "
            f"{sum(errors) / len(errors):.2f} m, {degraded_total} degraded "
            f"link(s), {rejected_total} rejected link(s)"
        )
    return 0


def _parse_zone_grid(spec: str) -> tuple[int, int]:
    """``"2x3"`` → ``(2, 3)``, validating both factors."""
    parts = spec.lower().split("x")
    try:
        rows, cols = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--zones must look like ROWSxCOLS, got {spec!r}")
    if rows < 1 or cols < 1:
        raise ValueError("--zones needs at least a 1x1 grid")
    return rows, cols


def _cmd_track(args: argparse.Namespace) -> int:
    """Seeded tracking run: objects walk, estimates stream, sessions track."""
    from .core import NomLocSystem, SystemConfig
    from .environment import get_scenario
    from .geometry import Point
    from .serving import LocalizationService, ServingConfig
    from .sessions import GeofenceRule, SessionConfig, SessionManager, ZoneMap
    from .tracking import random_trajectory

    try:
        scenario = get_scenario(args.scenario)
        rows, cols = _parse_zone_grid(args.zones)
        if (args.kill_after or args.resume) and not args.durable:
            raise ValueError("--kill-after/--resume need --durable")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = NomLocSystem(
        scenario, SystemConfig(packets_per_link=args.packets)
    )
    plan = scenario.plan
    zones = ZoneMap.grid(plan.boundary, rows, cols)
    # The far corner of the grid doubles as a geofenced demo zone so the
    # run exercises the alert path whenever a walk wanders into it.
    rules = (GeofenceRule(zone=zones.names()[-1], forbidden=True),)
    session_config = SessionConfig(
        filter_kind=args.filter,
        modulate_noise=not args.blind,
        idle_timeout_s=max(30.0, 4.0 * args.steps),
        seed=args.seed,
    )
    store = None
    recovery = None
    applied_skip = 0  # fixes already journaled (resume skips them)
    if args.durable:
        from .sessions import SessionStore
        from .sessions.durable import recover

        store = SessionStore(args.db, group_commit=args.group_commit)
        if args.resume:
            manager, recovery = recover(
                store,
                zones,
                session_config,
                rules,
                plan=plan,
                checkpoint_every=args.checkpoint_every,
            )
            applied_skip = store.fix_count()
        else:
            manager = SessionManager(
                zones,
                session_config,
                rules,
                plan=plan,
                store=store,
                checkpoint_every=args.checkpoint_every,
            )
    else:
        manager = SessionManager(zones, session_config, rules, plan=plan)
    trajectories = [
        random_trajectory(
            plan,
            np.random.default_rng(
                np.random.SeedSequence([args.seed, 1000 + i])
            ),
            num_waypoints=4,
        )
        for i in range(args.objects)
    ]
    object_ids = [f"obj-{i:03d}" for i in range(args.objects)]
    service = LocalizationService(
        plan.boundary,
        config=ServingConfig(
            max_workers=args.workers,
            lp_batch=args.lp_batch,
            cache_topologies=not args.no_cache,
            cache_bisectors=not args.no_cache,
        ),
    )
    errors: list[float] = []
    applied = 0  # fixes applied by THIS process
    try:
        for tick in range(args.steps):
            # Ticks fully covered by the journal need no re-solving —
            # the fix stream is seeded per (tick, object), not
            # sequential, so skipping is exact.
            if (tick + 1) * args.objects <= applied_skip:
                continue
            truths = []
            batch = []
            for i, traj in enumerate(trajectories):
                truth = traj.positions[min(tick, len(traj) - 1)]
                truths.append(truth)
                rng = np.random.default_rng(
                    np.random.SeedSequence([args.seed, tick, i])
                )
                batch.append(tuple(system.gather_anchors(truth, rng)))
            responses = service.batch(batch)
            for i, (truth, resp) in enumerate(zip(truths, responses)):
                if tick * args.objects + i < applied_skip:
                    continue  # journaled by the pre-crash process
                fix, confidence = resp.position, resp.confidence
                crng = np.random.default_rng(
                    np.random.SeedSequence([args.seed, 77, tick, i])
                )
                if args.corrupt and crng.random() < args.corrupt:
                    # A guard-flagged bad fix: way off, zero confidence.
                    angle = crng.random() * 2.0 * np.pi
                    fix = Point(
                        fix.x + 6.0 * np.cos(angle),
                        fix.y + 6.0 * np.sin(angle),
                    )
                    confidence = 0.0
                update, _ = manager.observe(
                    object_ids[i], float(tick), fix, confidence=confidence
                )
                errors.append(update.position.distance_to(truth))
                applied += 1
                if args.kill_after and applied >= args.kill_after:
                    # The crash half of the recovery drill: die without
                    # flushing, cleanup, or goodbyes — exactly SIGKILL.
                    os.kill(os.getpid(), signal.SIGKILL)
    finally:
        service.close()
        if store is not None:
            manager.sync()
    arm = "blind" if args.blind else "confidence-modulated"
    print(
        f"tracked {args.objects} object(s) for {args.steps} ticks over a "
        f"{rows}x{cols} zone grid ({args.filter} filter, {arm} noise)"
    )
    if recovery is not None:
        print(
            f"recovered from {args.db}: snapshot@{recovery.snapshot_seq}, "
            f"{recovery.replayed} journal entries replayed, "
            f"{recovery.events} events verified onto the pre-crash chain"
        )
    if store is not None:
        counts = store.counts()
        store.close()
        print(
            f"session store {args.db}: {counts['journal']} journal rows "
            f"({counts['fixes']} fixes), {counts['snapshots']} snapshot(s)"
        )
    for object_id in manager.object_ids():
        session = manager.session(object_id)
        inside = ", ".join(session.fsm.inside_zones()) or "-"
        print(
            f"  {object_id}: {session.updates} fixes, "
            f"sigma {session.filter.position_sigma_m():.2f} m, "
            f"in [{inside}]"
        )
    errors.sort()
    print(
        f"track error median {errors[len(errors) // 2]:.2f} m, "
        f"max {errors[-1]:.2f} m over {len(errors)} fixes"
    )
    snapshot = manager.metrics_snapshot()
    event_counts = ", ".join(
        f"{kind}={count}" for kind, count in sorted(snapshot["events"].items())
    ) or "none"
    print(f"events: {event_counts}")
    for zone, stats in snapshot["zones"].items():
        if stats["visits"] == 0:
            continue
        print(
            f"  {zone}: occupancy {stats['occupancy']} "
            f"(peak {stats['peak_occupancy']}), {stats['visits']} visit(s), "
            f"mean dwell {stats['mean_dwell_s']:.1f} s"
        )
    print(f"event log digest {manager.event_log.digest()}")
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from .environment import get_scenario
    from .gateway import GatewayConfig, GatewayServer

    try:
        scenario = get_scenario(args.scenario)
        config = GatewayConfig(
            host=args.host,
            port=args.port,
            db_path=args.db,
            num_shards=args.shards,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def serve() -> None:
        server = GatewayServer(scenario.plan.boundary, config=config)
        await server.start()
        print(
            f"gateway listening on http://{server.host}:{server.port} "
            f"(scenario {scenario.name}, {config.num_shards} shard(s), "
            f"ledger {config.db_path})",
            flush=True,
        )
        await server.serve_forever()
        print("gateway drained cleanly", flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # non-Unix fallback; Unix path drains in-loop
        pass
    except OSError as exc:  # the bind failed; start() closed the ledger
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
