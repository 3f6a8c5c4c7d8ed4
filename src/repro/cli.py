"""Command-line interface for the reproduction experiments.

Provides a small ``repro-experiments`` tool (also runnable as
``python -m repro.cli``) that regenerates the paper's artefacts from the
terminal without going through pytest, and drives the sweeps, fleets and
results stores behind them.  Every verb and verb group is one row of
:data:`VERBS` (path, handler, help, arguments), from which
:func:`build_parser` builds the parser.

``run``, ``sweep`` and ``bench`` accept ``--store PATH`` to stream results
into a persistent :class:`~repro.store.ResultsStore` as they finish, and
``--resume`` to skip spec_ids (bench: per-case timings) the store already
holds — a killed sweep re-invoked with the same flags completes exactly the
missing work.  ``run`` and ``sweep`` also take ``--retries``/
``--retry-backoff`` (re-run failed specs) and ``--spec-timeout`` (process
backend: abandon the batch when no spec completes in time); failures are
recorded in the store's ``errors`` table and shown by ``store ls``.

The ``scenario``, ``sweep`` and ``bench`` commands are thin front-ends over
:mod:`repro.experiments`: they assemble :class:`ExperimentSpec` objects and
hand them to the spec runner.  Pass ``--dump-spec FILE`` (or ``-`` for
stdout) to export the specs a command would run instead of running them; the
resulting file replays bit-identically via ``repro-experiments run FILE``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    BENCH_KIND_BATCHED,
    BENCH_KIND_DECISION,
    DEFAULT_BATCHED_BENCH_PATH,
    DEFAULT_BENCH_PATH,
    GATED_FIELDS,
    adaptation_events,
    application_timeline,
    compare_bench,
    format_operating_points,
    format_table,
    format_trace_comparison,
    gate_cases,
    load_bench_file,
    reference_sections,
    run_batched_bench,
    run_bench_specs,
    write_bench_file,
)
from repro.data.cifar import make_validation_set
from repro.data.measurements import CASE_STUDY_BUDGETS, TABLE1_ROWS
from repro.dnn import IncrementalTrainer, make_dynamic_cifar_dnn
from repro.dnn.zoo import cifar_group_cnn
from repro.experiments import (
    EXECUTION_BACKEND_REGISTRY,
    MANAGER_REGISTRY,
    ExperimentSpec,
    SpecError,
    build_manager_from_spec,
    build_scenario_from_spec,
    build_simulator_config,
    dump_specs,
    grid_specs,
    load_specs,
    run_many,
    specs_to_toml,
)
from repro.fleet import (
    BENCH_KIND_FLEET,
    DEFAULT_FLEET_BENCH_PATH,
    FLEET_BACKENDS,
    FLEET_POLICY_REGISTRY,
    FleetSpec,
    FleetSpecError,
    fleet_scenario_summaries,
    load_fleet_specs,
    run_fleet,
    run_fleet_bench,
)
from repro.perfmodel import CalibratedLatencyModel, EnergyModel
from repro.platforms import (
    PLATFORM_REGISTRY,
    build_preset,
    jetson_nano,
    odroid_xu3,
    preset_summaries,
)
from repro.registry import Registry, find_duplicates
from repro.rtm import (
    POLICY_REGISTRY,
    MinEnergyUnderConstraints,
    OperatingPointSpace,
    RuntimeManager,
    make_policy,
)
from repro.sim.engine import simulate_scenario
from repro.store import ResultsStore, StoredResult
from repro.workloads import (
    COMPOSE_OPS,
    SCENARIO_REGISTRY,
    ArrivalTrace,
    DiurnalConfig,
    Requirements,
    TraceFormatError,
    build_scenario,
    compute_trace_stats,
    config_for_arrivals,
    scenario_is_seeded,
    scenario_summaries,
    write_diurnal_trace,
)

__all__ = ["main", "build_parser", "VERBS"]


def _energy_model() -> EnergyModel:
    return EnergyModel(CalibratedLatencyModel())


def _trained_dnn():
    return IncrementalTrainer().train(make_dynamic_cifar_dnn())


# ------------------------------------------------------------ usage checks


def _names_known(*checks: "tuple[Registry, Sequence[str]]") -> bool:
    """Validate the registry names a verb was given, one check per registry.

    Prints the first failing check's unknown names (with did-you-mean
    suggestions) or duplicates to stderr; returns True when every name
    resolves exactly once.
    """
    for registry, names in checks:
        unknown = [name for name in names if name not in registry]
        if unknown:
            kind = registry.kind
            plural = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
            print(f"unknown {plural} {unknown}; available: {sorted(registry)}", file=sys.stderr)
            for name in unknown:
                suggestions = registry.suggest(name)
                if suggestions:
                    print(
                        f"  did you mean {', '.join(repr(s) for s in suggestions)} "
                        f"instead of {name!r}?",
                        file=sys.stderr,
                    )
            return False
        duplicates = find_duplicates(names)
        if duplicates:
            print(f"duplicate {registry.kind} names: {duplicates}", file=sys.stderr)
            return False
    return True


def _usage_ok(
    at_least: Optional[Dict[str, Optional[int]]] = None,
    minimum: int = 1,
    labels: Sequence[str] = (),
    duplicate: str = "",
) -> bool:
    """Check the counts and case labels a verb was given; print the first problem.

    Each ``at_least`` flag (``None`` = not given) must be at least
    ``minimum``, and no ``labels`` entry may repeat: ``duplicate`` is that
    error, formatted with the repeated labels.
    """
    for flag, value in (at_least or {}).items():
        if value is not None and value < minimum:
            print(f"{flag} must be at least {minimum}", file=sys.stderr)
            return False
    duplicates = find_duplicates(labels)
    if duplicates:
        print(duplicate.format(duplicates), file=sys.stderr)
        return False
    return True


def _backend_workers_conflict(args: argparse.Namespace) -> bool:
    """True (after printing the error) when --backend rejects --workers.

    ``run_many`` raises ``ValueError`` for ``workers > 1`` on a backend
    whose registry entry is not ``parallel``; catching the combination here
    turns that into a usage error with the fix spelled out.
    """
    if args.backend is None or args.workers == 1:
        return False
    if EXECUTION_BACKEND_REGISTRY.entry(args.backend).metadata.get("parallel"):
        return False
    print(
        f"backend {args.backend!r} is single-process and ignores worker pools; "
        "drop --workers or use --backend process",
        file=sys.stderr,
    )
    return True


def _dump_specs_and_exit(specs: List[ExperimentSpec], destination: str) -> int:
    """Write the specs a command would run to a file (or stdout for ``-``)."""
    if destination == "-":
        sys.stdout.write(specs_to_toml(specs))
    else:
        dump_specs(specs, destination)
        plural = "experiment" if len(specs) == 1 else "experiments"
        print(f"wrote {len(specs)} {plural} to {destination}")
        print(f"replay with: repro-experiments run {destination}")
    return 0


# ------------------------------------------------------------------ commands


def cmd_table1(args: argparse.Namespace) -> int:
    """Reproduce Table I and print paper vs model for every row."""
    energy_model = _energy_model()
    network = cifar_group_cnn()
    socs = {"odroid_xu3": odroid_xu3(), "jetson_nano": jetson_nano()}
    rows = []
    for row in TABLE1_ROWS:
        cluster = socs[row.platform].cluster(row.cluster)
        frequency = (
            row.frequency_mhz
            if cluster.opp_table.contains_frequency(row.frequency_mhz)
            else cluster.opp_table.nearest(row.frequency_mhz).frequency_mhz
        )
        cost = energy_model.cost(
            network, cluster, frequency_mhz=frequency, cores_used=1, soc_name=row.platform
        )
        rows.append(
            [
                row.platform,
                row.cores,
                row.execution_time_ms,
                round(cost.latency_ms, 1),
                row.power_mw,
                round(cost.power_mw),
                row.energy_mj,
                round(cost.energy_mj, 1),
            ]
        )
    headers = ["platform", "cores", "t paper", "t model", "P paper", "P model", "E paper", "E model"]
    print(format_table(headers, rows, precision=1))
    return 0


def cmd_fig4a(args: argparse.Namespace) -> int:
    """Print the Fig 4(a) operating-point sweep (optionally only the Pareto front)."""
    if not _usage_ok({"--limit": args.limit}, minimum=0):
        return 2
    trained = _trained_dnn()
    space = OperatingPointSpace(trained, odroid_xu3(), _energy_model())
    table = space.enumerate_table(clusters=["a15", "a7"], core_counts=[1])
    if args.pareto:
        points = table.pareto().points
        print(f"Pareto-optimal operating points ({len(points)}):")
    else:
        points = table.points
        print(f"Fig 4(a) operating points ({len(points)}):")
    points = sorted(points, key=lambda p: (p.cluster_name, p.configuration, p.frequency_mhz))
    print(format_operating_points(points, limit=args.limit))
    return 0


def cmd_fig4b(args: argparse.Namespace) -> int:
    """Print the Fig 4(b) accuracy table with per-class spread."""
    trained = _trained_dnn()
    dataset = make_validation_set()
    rows = []
    for fraction in trained.configurations:
        per_class = trained.accuracy_model.per_class(fraction, dataset)
        rows.append(
            [f"{round(fraction * 100)}%", round(per_class.mean_top1, 1), round(per_class.stddev, 1)]
        )
    print(format_table(["configuration", "top-1 (%)", "class stddev (pp)"], rows, precision=1))
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    """Run the Section IV budget queries (or a custom budget)."""
    if (args.latency_ms is None) != (args.energy_mj is None):
        print("a custom budget needs both --latency-ms and --energy-mj", file=sys.stderr)
        return 2
    if not _names_known((PLATFORM_REGISTRY, [args.platform]), (POLICY_REGISTRY, [args.policy])):
        return 2
    platform = build_preset(args.platform)
    clusters = args.clusters or [
        cluster.name for cluster in platform.clusters if cluster.core_type.is_cpu
    ]
    unknown = [name for name in clusters if not platform.has_cluster(name)]
    if unknown:
        print(
            f"{args.platform} has no clusters {unknown}; available: {platform.cluster_names}",
            file=sys.stderr,
        )
        return 2
    trained = _trained_dnn()
    manager = RuntimeManager(policy=make_policy(args.policy))
    budgets = list(CASE_STUDY_BUDGETS)
    if args.latency_ms is not None:
        budgets = [(args.latency_ms, args.energy_mj)]
    for latency_ms, energy_mj in budgets:
        point = manager.select_operating_point(
            trained,
            platform,
            Requirements(max_latency_ms=latency_ms, max_energy_mj=energy_mj),
            clusters=clusters,
            core_counts=[1],
        )
        chosen = "no operating point found" if point is None else point.describe()
        print(f"budget ({latency_ms:.0f} ms, {energy_mj:.0f} mJ) -> {chosen}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Replay a scenario under the RTM and (optionally) the baselines."""
    if not _names_known((SCENARIO_REGISTRY, [args.name]), (PLATFORM_REGISTRY, [args.platform])):
        return 2
    managers = ["rtm", "governor_only", "static_deployment"] if args.baselines else ["rtm"]
    specs = [
        ExperimentSpec(
            name=manager,
            scenario=args.name,
            manager=manager,
            platform=args.platform,
            seed=args.seed,
            policy_overrides={"dnn2": MinEnergyUnderConstraints.name} if manager == "rtm" else {},
        )
        for manager in managers
    ]
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    batch = run_many(specs)
    if batch.errors:
        for name, message in batch.errors.items():
            print(f"{name}: {message}", file=sys.stderr)
        return 1
    print(format_trace_comparison(batch.traces))

    rtm_trace = batch.traces["rtm"]
    scenario = build_scenario_from_spec(specs[0])
    for app in scenario.dnn_applications:
        print(f"\nTimeline of {app.app_id} under the RTM:")
        for phase in application_timeline(rtm_trace, app.app_id, scenario=scenario):
            clusters = "/".join(phase.clusters) if phase.clusters else "-"
            print(
                f"  {phase.label:<18} jobs={phase.jobs:<4} width={phase.mean_configuration:4.2f} "
                f"on {clusters:<12} t={phase.mean_latency_ms:7.1f} ms "
                f"viol={phase.violation_rate:5.2f}"
            )
    if args.events:
        print("\nAdaptation events:")
        for event in adaptation_events(rtm_trace):
            print(f"  {event}")
    return 0


def _print_listing(title: str, rows: Sequence["tuple[str, str, str]"]) -> None:
    """Print ``<count> <title>:`` and one aligned ``name mark text`` line per row.

    ``mark`` is ``*``, a blank, or ``""`` in a listing without a marker
    column; the lines of a multi-line ``text`` after its first align under it.
    """
    width = max(len(name) for name, _, _ in rows)
    print(f"{len(rows)} {title}:")
    for name, mark, text in rows:
        first, *more = text.split("\n")
        print(f"  {name:<{width}} {mark} {first}")
        for line in more:
            print(f"  {'':<{width}} {' ' * len(mark)} {line}")


def _scenario_rows(summaries: Dict[str, str]) -> "list[tuple[str, str, str]]":
    """Listing rows of registry scenarios, marked when they vary with the seed."""
    return [
        (name, "*" if scenario_is_seeded(name) else " ", summary)
        for name, summary in summaries.items()
    ]


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    """List the registered named scenarios with their one-line descriptions."""
    _print_listing(
        "registered scenarios (* = varies with --seed)", _scenario_rows(scenario_summaries())
    )
    return 0


def _print_scenario_overview(scenario) -> None:
    """Application/event overview shared by ``scenarios compose`` and ``trace``."""
    print(
        f"{scenario.name}: {len(scenario.applications)} applications, "
        f"{len(scenario.events())} events, {scenario.duration_ms / 1000.0:g} s on "
        f"{scenario.platform_name}"
    )
    rows = [
        [
            app.app_id,
            app.kind.value,
            round(app.arrival_time_ms / 1000.0, 2),
            "-" if app.departure_time_ms is None else round(app.departure_time_ms / 1000.0, 2),
            "-" if app.requirements.target_fps is None else app.requirements.target_fps,
            app.requirements.priority,
        ]
        for app in scenario.applications
    ]
    print(format_table(["app", "kind", "arrive (s)", "depart (s)", "fps", "prio"], rows, precision=2))


def _run_built(scenario, spec: ExperimentSpec) -> None:
    """Simulate an already-built scenario under the spec's manager and print the outcome.

    The single-spec compose/replay commands build the scenario once (for
    validation and the printed overview); re-running the spec through the
    runner would reconstitute it — and retrain its dynamic DNNs — a second
    time for no benefit.  The result is identical: building the scenario is
    the only spec step this bypasses.
    """
    manager = build_manager_from_spec(spec)
    trace = simulate_scenario(scenario, manager, config=build_simulator_config(spec))
    print()
    _print_case_table({spec.label: trace})
    print(f"trace fingerprint: {trace.fingerprint()}")


def cmd_scenarios_compose(args: argparse.Namespace) -> int:
    """Compose two registry scenarios and inspect / trace / spec / run the result."""
    if args.dump_spec is not None and (args.save_trace is not None or args.run):
        # --dump-spec means "emit the spec instead of executing"; combining
        # it with an execution output would silently skip the latter.
        print(
            "--dump-spec replaces execution; drop it or drop --save-trace/--run",
            file=sys.stderr,
        )
        return 2
    operands = [args.a] if args.b is None else [args.a, args.b]
    if not _names_known(
        (SCENARIO_REGISTRY, list(dict.fromkeys(operands))),
        (MANAGER_REGISTRY, [args.manager]),
        (PLATFORM_REGISTRY, [args.platform]),
    ):
        return 2
    # Only explicitly-given operand parameters enter the spec; the compose
    # builder rejects ones its op does not use (e.g. --at-ms with --op mix),
    # so a flag can never be dropped silently.
    params: dict = {"op": args.op, "a": args.a}
    for key in ("b", "at_ms", "arrival_factor", "duration_factor"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    spec = ExperimentSpec(
        name=f"compose_{args.op}",
        scenario="compose",
        manager=args.manager,
        platform=args.platform,
        seed=args.seed,
        scenario_params=params,
    )
    try:
        scenario = build_scenario_from_spec(spec)
    except ValueError as error:
        print(f"invalid composition: {error}", file=sys.stderr)
        return 2
    if args.dump_spec is not None:
        return _dump_specs_and_exit([spec], args.dump_spec)
    _print_scenario_overview(scenario)
    if args.save_trace is not None:
        ArrivalTrace.from_scenario(scenario).save(args.save_trace)
        print(f"\nwrote arrival trace to {args.save_trace}")
        print(f"replay with: repro-experiments trace replay {args.save_trace}")
    if args.run:
        _run_built(scenario, spec)
    return 0


def _parse_param_overrides(entries: Optional[Sequence[str]]) -> Dict[str, object]:
    """Parse repeated ``--param KEY=VALUE`` flags into a params dict.

    Values are decoded as JSON when possible (numbers, booleans, lists) and
    kept as strings otherwise, so ``--param duration_ms=60000`` arrives as a
    number while ``--param source=rush_hour`` stays a string.
    """
    params: Dict[str, object] = {}
    for entry in entries or ():
        key, separator, raw = entry.partition("=")
        if not separator or not key:
            raise ValueError(f"--param needs KEY=VALUE, got {entry!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_trace_record(args: argparse.Namespace) -> int:
    """Record a registry scenario's workload timeline to a JSONL arrival trace."""
    if not _names_known((SCENARIO_REGISTRY, [args.scenario]), (PLATFORM_REGISTRY, [args.platform])):
        return 2
    try:
        params = _parse_param_overrides(args.param)
        scenario = build_scenario(
            args.scenario, seed=args.seed, platform_name=args.platform, **params
        )
    except (ValueError, TypeError) as error:
        print(f"invalid scenario parameters: {error}", file=sys.stderr)
        return 2
    trace = ArrivalTrace.from_scenario(scenario)
    trace.save(args.out)
    print(
        f"recorded {len(trace.applications)} applications and {len(trace.events)} "
        f"scheduled events of {scenario.name!r} to {args.out}"
    )
    print(f"replay with: repro-experiments trace replay {args.out}")
    return 0


def cmd_trace_generate(args: argparse.Namespace) -> int:
    """Generate a diurnal traffic trace straight to disk via the streaming writer."""
    if not _names_known((PLATFORM_REGISTRY, [args.platform])):
        return 2
    duration_ms = args.duration_ms if args.duration_ms is not None else args.hours * 3_600_000.0
    try:
        overrides = _parse_param_overrides(args.param)
        if args.arrivals is not None:
            config = config_for_arrivals(args.arrivals, duration_ms=duration_ms, **overrides)
        else:
            config = DiurnalConfig(duration_ms=duration_ms, **overrides)  # type: ignore[arg-type]
        written = write_diurnal_trace(args.out, config, seed=args.seed, platform_name=args.platform)
    except (ValueError, TypeError, TraceFormatError) as error:
        print(f"invalid diurnal config: {error}", file=sys.stderr)
        return 2
    print(
        f"generated {written} arrival(s) over {config.duration_ms / 3_600_000.0:g} h "
        f"(base rate {config.base_rate_per_s:g}/s, {config.flash_crowds} flash "
        f"crowd(s)) to {args.out}"
    )
    print(f"summarise with: repro-experiments trace stats {args.out}")
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a JSONL arrival trace under a manager and print the outcome."""
    try:
        header = ArrivalTrace.read_header(args.file)
        platform = args.platform or header.platform_name
        if not _names_known((MANAGER_REGISTRY, [args.manager]), (PLATFORM_REGISTRY, [platform])):
            return 2
        scenario = ArrivalTrace.stream_scenario(args.file, platform_name=platform)
    except TraceFormatError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    spec = ExperimentSpec(
        name=f"replay_{header.scenario_name}",
        scenario="trace",
        manager=args.manager,
        platform=platform,
        scenario_params={"path": str(args.file)},
    )
    if args.dump_spec is not None:
        # A relative trace path in a spec resolves against the cwd of the
        # *run*, not the spec file, so the dumped spec pins the absolute
        # path to stay replayable from any directory on this machine.  An
        # explicit --platform override must also be marked deliberate, or
        # the emitted spec would be rejected for the platform mismatch.
        params: dict = {"path": str(Path(args.file).resolve())}
        if platform != header.platform_name:
            params["replatform"] = True
        spec = dataclasses.replace(spec, scenario_params=params)
        return _dump_specs_and_exit([spec], args.dump_spec)
    _print_scenario_overview(scenario)
    _run_built(scenario, spec)
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    """Summarise a JSONL arrival trace without simulating anything.

    Streams the file through :func:`compute_trace_stats`, so a
    million-arrival trace is summarised in one pass with memory bounded by
    the compact arrival-time array (8 bytes per arrival), never the record
    dicts.  ``--max-peak-mb`` turns that bound into an enforced assertion
    via :mod:`tracemalloc` (exit 1 on exceed) — the CI trace job runs under
    it to keep the pipeline honestly streaming.
    """
    import tracemalloc

    if args.max_peak_mb is not None:
        tracemalloc.start()
    try:
        stats = compute_trace_stats(args.file)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    except TraceFormatError as error:
        print(f"invalid trace: {error}", file=sys.stderr)
        return 2
    finally:
        if args.max_peak_mb is not None:
            tracemalloc.stop()
    print(f"trace:    {args.file}")
    print(f"scenario: {stats.scenario_name} on {stats.platform_name}")
    print(f"duration: {stats.duration_ms:g} ms")
    print(
        f"arrivals: {stats.num_applications} application(s), "
        f"{stats.num_events} scheduled event(s)"
    )
    if stats.num_applications:
        print()
        print(
            format_table(
                ["kind", "apps", "share"],
                [
                    [kind, count, f"{100.0 * count / stats.num_applications:.1f}%"]
                    for kind, count in sorted(stats.by_kind.items())
                ],
                precision=4,
            )
        )
        print(f"{stats.num_departures} of {stats.num_applications} application(s) also depart")
        print(f"first arrival {stats.first_arrival_ms:g} ms, last {stats.last_arrival_ms:g} ms")
        if stats.gap_p50_ms is not None:
            print(
                "inter-arrival ms: "
                f"min {stats.gap_min_ms:.1f}  p50 {stats.gap_p50_ms:.1f}  "
                f"p90 {stats.gap_p90_ms:.1f}  p99 {stats.gap_p99_ms:.1f}  "
                f"max {stats.gap_max_ms:.1f}"
            )
    if args.max_peak_mb is not None:
        if peak_mb > args.max_peak_mb:
            print(
                f"peak memory {peak_mb:.1f} MB exceeds --max-peak-mb "
                f"{args.max_peak_mb:g}",
                file=sys.stderr,
            )
            return 1
        print(f"peak memory {peak_mb:.1f} MB (within --max-peak-mb {args.max_peak_mb:g})")
    return 0


def cmd_managers_list(args: argparse.Namespace) -> int:
    """List the registered runtime managers with their one-line descriptions."""
    _print_listing(
        "registered managers (* = accepts policy/rtm overrides)",
        [
            (entry.name, "*" if entry.metadata.get("configurable") else " ", entry.summary)
            for entry in MANAGER_REGISTRY.list()
        ],
    )
    return 0


def cmd_platforms_list(args: argparse.Namespace) -> int:
    """List the platform presets with cluster topology and core counts."""
    rows = []
    for name, info in preset_summaries().items():
        clusters = " + ".join(
            f"{cluster_name}:{payload['num_cores']}x{payload['core_type']}"
            for cluster_name, payload in info["clusters"].items()
        )
        text = f"{info['total_cores']:>2} cores  {clusters}\n{info['summary']}"
        rows.append((name, "*" if info["calibrated"] else " ", text))
    _print_listing("platform presets (* = calibrated against the paper)", rows)
    return 0


def cmd_faults_list(args: argparse.Namespace) -> int:
    """List fault event kinds (with their accepted keys) and chaos scenarios."""
    from repro.sim.faults import FAULT_EVENT_KINDS, JobCrashProfile

    def summary_and_keys(spec_class) -> "tuple[str, str]":
        summary = (spec_class.__doc__ or "").strip().splitlines()[0]
        return summary, ", ".join(spec_field.name for spec_field in dataclasses.fields(spec_class))

    rows = []
    for kind in sorted(FAULT_EVENT_KINDS):
        summary, keys = summary_and_keys(FAULT_EVENT_KINDS[kind])
        rows.append((kind, "", f"{summary}\nkeys: kind, {keys}"))
    _print_listing("fault event kinds (plan tables: [[events]])", rows)
    crash_summary, crash_keys = summary_and_keys(JobCrashProfile)
    print(f"\njob crashes ([job_crashes] table): {crash_summary}")
    print(f"  keys: {crash_keys}")
    print()
    _print_listing(
        "chaos scenarios (fault plans baked in; see 'scenarios list')",
        _scenario_rows(
            {name: text for name, text in scenario_summaries().items() if name.startswith("chaos_")}
        ),
    )
    return 0


def _store_session(args: argparse.Namespace) -> "ContextManager[Optional[ResultsStore]]":
    """``--store`` opened for one ``with`` block and closed after it (``None`` without it).

    Shared by every result-streaming verb (``run``, ``sweep``, ``bench``,
    ``fleet``).
    """
    return ResultsStore(args.store) if args.store is not None else nullcontext()


def _execute_spec_batch(args: argparse.Namespace, specs, report: Callable):
    """Shared ``run``/``sweep`` execution path.

    One store session around :func:`run_many`, the verb-specific ``report``
    callback (headers and case tables), then the common store epilogue.
    """
    with _store_session(args) as store:
        batch = run_many(
            specs,
            backend=args.backend,
            workers=args.workers,
            validate=False,
            store=store,
            resume=args.resume,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            spec_timeout=args.spec_timeout,
        )
        report(batch)
        if store is not None:
            _report_store_outcome(store, args, batch, specs)
    return batch


def _failures(errors: Dict[str, str], noun: str) -> int:
    """Exit code of a batch: 1 after listing its failed cases on stderr, else 0."""
    if not errors:
        return 0
    print(f"\n{len(errors)} {noun}(s) failed:", file=sys.stderr)
    for name, message in errors.items():
        print(f"  {name}: {message}", file=sys.stderr)
    return 1


def _resume_store_conflict(args: argparse.Namespace) -> bool:
    """True (after printing the error) when --resume is given without --store."""
    if args.resume and args.store is None:
        print("--resume needs --store PATH (nothing to resume from)", file=sys.stderr)
        return True
    return False


def _on_existing_store(
    verb: Callable[[argparse.Namespace, ResultsStore], int],
) -> Callable[[argparse.Namespace], int]:
    """Run a ``store`` verb on its STORE, which must already exist, and close it after.

    Exits 2 after printing an error when the file is missing or unreadable —
    opening would otherwise silently create an empty store.
    """

    @functools.wraps(verb)
    def run_verb(args: argparse.Namespace) -> int:
        if not Path(args.store).exists():
            print(f"no results store at {args.store}", file=sys.stderr)
            return 2
        try:
            store = ResultsStore(args.store)
        except Exception as error:  # noqa: BLE001 - reported to the user (StoreError, sqlite)
            print(f"cannot open results store {args.store}: {error}", file=sys.stderr)
            return 2
        with store:
            return verb(args, store)

    return run_verb


def _report_store_outcome(store: ResultsStore, args, batch, specs) -> None:
    """Shared --store epilogue of ``run`` and ``sweep``.

    Prints the skipped-vs-computed split and the combined fingerprint digest
    over this batch's spec_ids — the digest is what CI compares between an
    interrupted+resumed sweep and a clean one-shot sweep.
    """
    print(
        f"resume: {batch.skipped_count} skipped (already stored), "
        f"{batch.computed_count} computed"
        if args.resume
        else f"store: {batch.computed_count} result(s) streamed to {args.store}"
    )
    if batch.skipped:
        _print_stored_case_table(batch.skipped)
    digest = store.fingerprint_digest(spec.spec_id() for spec in specs)
    print(f"store: {args.store} holds {len(store)} result(s)")
    print(f"combined fingerprint digest over this batch: {digest}")


def _print_stored_case_table(stored: "dict[str, StoredResult]") -> None:
    """Table of already-stored cases a resumed batch skipped."""
    headers = ["case (stored)", "spec id", "violation rate", "mean top-1 (%)", "energy (J)"]
    rows = []
    for label, record in stored.items():
        energy = record.metrics.get("total_energy_mj")
        rows.append(
            [
                label,
                record.spec_id,
                round(float(record.metrics.get("violation_rate", 0.0)), 4),
                round(float(record.metrics.get("mean_accuracy_percent", 0.0)), 2),
                round(float(energy) / 1000.0, 3) if energy is not None else "-",
            ]
        )
    print(format_table(headers, rows, precision=4))


def _print_case_table(traces, show_spec_ids=None) -> None:
    """Per-case headline statistics shared by ``run`` and ``sweep``."""
    headers = ["case", "violation rate", "mean top-1 (%)", "energy (J)"]
    if show_spec_ids:
        headers.insert(1, "spec id")
    rows = []
    for name, trace in traces.items():
        row = [
            name,
            round(trace.violation_rate(), 4),
            round(trace.mean_accuracy_percent(), 2),
            round(trace.total_energy_mj() / 1000.0, 3),
        ]
        if show_spec_ids:
            row.insert(1, show_spec_ids[name])
        rows.append(row)
    print(format_table(headers, rows, precision=4))


def cmd_run(args: argparse.Namespace) -> int:
    """Execute experiment spec files through the spec runner."""
    specs: List[ExperimentSpec] = []
    try:
        for path in args.specs:
            specs.extend(load_specs(path))
        for spec in specs:
            spec.validate()
    except SpecError as error:
        print(f"invalid spec: {error}", file=sys.stderr)
        return 2
    if args.faults is not None:
        from repro.sim.faults import FaultPlan, FaultPlanError

        try:
            plan = FaultPlan.from_file(args.faults)
        except FaultPlanError as error:
            print(f"cannot load fault plan {args.faults!r}: {error}", file=sys.stderr)
            return 2
        if plan.is_empty:
            print(
                f"fault plan {args.faults!r} declares no events and no job crashes",
                file=sys.stderr,
            )
            return 2
        # The overlay replaces any per-spec faults table: one plan file, one
        # behaviour, for every spec in the batch.  Spec ids change with it.
        specs = [dataclasses.replace(spec, faults=plan.to_dict()) for spec in specs]
    if not _usage_ok(
        {"--workers": args.workers},
        labels=[spec.label for spec in specs],
        duplicate="duplicate experiment labels {}; give repeated entries distinct 'name' keys",
    ):
        return 2
    if _backend_workers_conflict(args) or _resume_store_conflict(args):
        return 2

    plural = "experiment" if len(specs) == 1 else "experiments"
    source = ", ".join(args.specs)
    # The backend is named only when explicitly chosen, so output stays
    # byte-identical across worker counts under the default dispatch.
    backend_note = f"backend={args.backend}, " if args.backend else ""
    print(f"run: {len(specs)} {plural} from {source} ({backend_note}workers={args.workers})")

    def report(batch) -> None:
        spec_ids = {spec.label: spec.spec_id() for spec in specs if spec.label in batch.traces}
        _print_case_table(batch.traces, show_spec_ids=spec_ids)

    return _failures(_execute_spec_batch(args, specs, report).errors, "experiment")


def _sweep_specs(args: argparse.Namespace) -> tuple:
    """(specs, seeds, seeds_for) of a ``sweep`` invocation."""
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    # Deterministic scenarios ignore the seed: run them once, pinned to seed
    # 0 (any other value would just trip the ignored-seed warning), instead
    # of repeating the identical simulation and passing the copies off as
    # cross-seed statistics.
    seeds_for = {
        name: seeds if scenario_is_seeded(name) else [0] for name in args.scenarios
    }
    specs = [
        ExperimentSpec(scenario=scenario, manager=manager, seed=seed, platform=args.platform)
        for scenario in args.scenarios
        for manager in args.managers
        for seed in seeds_for[scenario]
    ]
    return specs, seeds, seeds_for


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (scenario, manager, seed) grid, optionally across worker processes."""
    if not _names_known(
        (SCENARIO_REGISTRY, args.scenarios),
        (MANAGER_REGISTRY, args.managers),
        (PLATFORM_REGISTRY, [args.platform]),
    ) or not _usage_ok({"--seeds": args.seeds, "--workers": args.workers}):
        return 2
    if _backend_workers_conflict(args) or _resume_store_conflict(args):
        return 2

    specs, seeds, seeds_for = _sweep_specs(args)
    for name in args.scenarios:
        if len(seeds_for[name]) < len(seeds):
            print(
                f"note: scenario {name!r} is seed-insensitive; running 1 case instead "
                f"of {len(seeds)}",
                file=sys.stderr,
            )
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)

    def report(batch) -> None:
        # Named only when explicitly chosen (see cmd_run): the CLI byte-parity
        # invariant says worker count must not change the output.
        backend_note = f" (backend={args.backend})" if args.backend else ""
        print(
            f"sweep: {len(args.scenarios)} scenarios x {len(args.managers)} managers "
            f"x {len(seeds)} seeds on {args.platform}{backend_note}"
        )
        _print_case_table(batch.traces)

    result = _execute_spec_batch(args, specs, report)

    # Aggregate across seeds per (scenario, manager) pair.
    by_pair: Dict["tuple[str, str]", list] = {}
    for spec in specs:
        if spec.label in result.traces:
            by_pair.setdefault((spec.scenario, spec.manager), []).append(result.traces[spec.label])
    aggregate_rows = []
    for (scenario, manager), traces in by_pair.items():
        violation_rates = [trace.violation_rate() for trace in traces]
        aggregate_rows.append(
            [
                scenario,
                manager,
                len(traces),
                round(sum(violation_rates) / len(traces), 4),
                round(max(violation_rates), 4),
                round(sum(trace.total_energy_mj() for trace in traces) / len(traces) / 1000.0, 3),
            ]
        )
    if aggregate_rows:
        print()
        print("aggregates across seeds:")
        print(
            format_table(
                ["scenario", "manager", "runs", "mean viol", "worst viol", "mean energy (J)"],
                aggregate_rows,
                precision=4,
            )
        )

    if args.cache_stats:
        # Counters are cumulative in the decision records, so they survive
        # the process boundary of parallel workers inside the trace itself.
        stats_rows = []
        for name, trace in result.traces.items():
            counters = trace.cache_counters()
            lookups = counters["hits"] + counters["misses"]
            stats_rows.append(
                [
                    name,
                    counters["hits"],
                    counters["misses"],
                    round(counters["hits"] / lookups, 4) if lookups else 0.0,
                ]
            )
        print()
        print("operating-point cache statistics:")
        print(
            format_table(
                ["case", "cache hits", "cache misses", "hit rate"], stats_rows, precision=4
            )
        )

    return _failures(result.errors, "case")


#: Scenarios x managers of the default ``bench`` grid: the decision-heavy
#: scenarios under the RTM family plus one baseline manager for scale.
BENCH_DEFAULT_SCENARIOS = ["rush_hour", "steady", "multi_app_contention"]
BENCH_DEFAULT_MANAGERS = ["rtm", "rtm_min_energy", "governor_only", "static_deployment"]
#: The CI smoke subset: one decision-heavy scenario under the default RTM.
BENCH_SMOKE_SCENARIOS = ["rush_hour"]
BENCH_SMOKE_MANAGERS = ["rtm"]
#: The batched-engine smoke grid needs redundancy (that is what the engine
#: exploits), so it spans two scenarios x two managers instead of one case.
BATCHED_BENCH_SMOKE_SCENARIOS = ["rush_hour", "steady"]
BATCHED_BENCH_SMOKE_MANAGERS = ["rtm", "governor_only"]


def _single_pass_resume_conflict(args: argparse.Namespace, applies_to: str, bench: str) -> bool:
    """True (after printing the error) when a single-pass bench gets --resume.

    The batched-engine and fleet benches time one monolithic pass; there is
    no per-case unit to resume, unlike the decision-kernel grid.
    """
    if not args.resume:
        return False
    print(
        f"--resume applies to {applies_to}; {bench} is a single timed pass "
        "(drop --resume, keep --store to append the run)",
        file=sys.stderr,
    )
    return True


def _gate_and_write(
    args: argparse.Namespace,
    output: Optional[str],
    kind: str,
    results: Dict[str, object],
    *,
    generated_by: str,
    config: Dict[str, object],
    metrics: Sequence[str],
    noun: str,
    label: str,
    grid: Optional[Sequence[str]] = None,
    extra: Optional[Dict[str, object]] = None,
    gap: str = "",
) -> "tuple[int, Optional[Dict[str, object]]]":
    """The shared tail of ``bench``, ``bench --backend batched`` and ``fleet bench``.

    Load ``--compare`` (exit 2 if unreadable) and gate ``metrics`` against it
    (exit 1 on a regression; ``grid`` as in :func:`gate_cases`), then write
    ``output`` and append it to ``--store``.  Returns the exit code and the
    written document, if any.  ``noun`` and ``label`` name the bench in the
    regression header and the store line; ``gap`` is the decision-kernel
    report's blank line before each verdict.
    """
    exit_code = 0
    if args.compare is not None:
        try:
            baseline = load_bench_file(args.compare)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline {args.compare!r}: {error}", file=sys.stderr)
            return 2, None
        current, base = gate_cases(kind, results, baseline, grid)
        regressions = compare_bench(current, base, metrics, args.max_regression)
        if regressions:
            print(
                f"\n{len(regressions)} {noun} regression(s) beyond "
                f"{args.max_regression:.0%} of {args.compare}:",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"{gap}no regressions beyond {args.max_regression:.0%} of {args.compare}")
    document = None
    if output is not None:
        with _store_session(args) as store:
            document = write_bench_file(
                output, kind, generated_by, config, results, extra=extra, store=store
            )
        print(f"{gap}wrote {output}")
        if args.store is not None:
            print(f"appended {label} run to {args.store}")
    return exit_code, document


def _bench_batched(
    args: argparse.Namespace,
    scenarios: Sequence[str],
    managers: Sequence[str],
    seeds: int,
    repeats: int,
    specs: List[ExperimentSpec],
) -> int:
    """Benchmark the batched engine against the serial reference backend."""
    print(
        f"bench (batched engine): {len(scenarios)} scenarios x {len(managers)} "
        f"managers x {seeds} seeds = {len(specs)} specs on {args.platform}, "
        f"best of {repeats}"
    )
    result = run_batched_bench(specs, repeats=repeats, progress=lambda line: print(f"  {line}"))
    print()
    print(
        f"batched {result.batched_s:.2f} s vs serial {result.serial_s:.2f} s "
        f"-> {result.speedup:.2f}x over {result.specs} specs"
    )
    if result.errors:
        print(f"{result.errors} spec(s) failed during the comparison", file=sys.stderr)
        return 1
    if not result.fingerprints_identical:
        print(
            "fingerprint mismatch: the batched engine diverged from the serial "
            "reference — do not trust the timing",
            file=sys.stderr,
        )
        return 1
    print("fingerprints identical across backends")

    # The untouched default points at the decision-kernel file; the batched
    # comparison tracks its own trajectory.  Only the batched wall time is
    # gated (the serial reference is re-measured for the speedup report), and
    # a baseline that timed another spec count measured another grid.
    output = DEFAULT_BATCHED_BENCH_PATH if args.output == DEFAULT_BENCH_PATH else args.output
    exit_code, _ = _gate_and_write(
        args,
        output,
        BENCH_KIND_BATCHED,
        result.as_dict(),
        generated_by="repro-experiments bench --backend batched",
        config={
            "repeats": repeats,
            "platform": args.platform,
            "scenarios": list(scenarios),
            "managers": list(managers),
            "seeds": seeds,
        },
        metrics=("batched_s",),
        grid=("specs",),
        noun="batched-engine",
        label="batched bench",
    )
    return exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the decision kernel (or the batched engine) and track the timings in JSON."""
    batched = args.backend == "batched"
    if batched and _single_pass_resume_conflict(
        args, "the per-case decision-kernel bench", "the batched comparison"
    ):
        return 2
    smoke_scenarios, smoke_managers = (
        (BATCHED_BENCH_SMOKE_SCENARIOS, BATCHED_BENCH_SMOKE_MANAGERS)
        if batched
        else (BENCH_SMOKE_SCENARIOS, BENCH_SMOKE_MANAGERS)
    )
    scenarios = args.scenarios or (smoke_scenarios if args.smoke else BENCH_DEFAULT_SCENARIOS)
    managers = args.managers or (smoke_managers if args.smoke else BENCH_DEFAULT_MANAGERS)
    # --seeds is the batched engine's alone; the decision kernel times seed 0.
    if not _names_known(
        (SCENARIO_REGISTRY, scenarios),
        (MANAGER_REGISTRY, managers),
        (PLATFORM_REGISTRY, [args.platform]),
    ) or not _usage_ok({"--repeats": args.repeats, "--seeds": args.seeds if batched else None}):
        return 2
    seeds = list(range(args.seeds or (2 if args.smoke else 4))) if batched else [0]
    repeats = args.repeats or (1 if args.smoke else 2 if batched else 3)
    specs = grid_specs(scenarios, managers, seeds=seeds, platform=args.platform)
    if args.dump_spec is not None:
        return _dump_specs_and_exit(specs, args.dump_spec)
    if batched:
        return _bench_batched(args, scenarios, managers, len(seeds), repeats, specs)

    def progress(timings) -> None:
        print(
            f"  {timings.key:<40} decide {timings.decide_ms_per_epoch_cached:8.3f} ms  "
            f"e2e {timings.e2e_s:6.3f} s"
        )

    print(
        f"bench: {len(scenarios)} scenarios x {len(managers)} managers on "
        f"{args.platform}, best of {repeats}"
    )
    if _resume_store_conflict(args):
        return 2
    with _store_session(args) as store:
        if args.resume:
            reused = sum(
                1
                for spec in specs
                if store.get_bench_case(spec.spec_id(), BENCH_KIND_DECISION) is not None
            )
            print(f"resume: {reused} of {len(specs)} case(s) already timed in {args.store}")
        results = run_bench_specs(
            specs, repeats=repeats, progress=progress, store=store, resume=args.resume
        )
    rows = [
        [timings.key, timings.decisions, timings.decide_ms_per_epoch_cached, timings.e2e_s]
        for timings in results
    ]
    headers = ["case", "epochs", "decide ms (cached)", "e2e s"]
    print()
    print(format_table(headers, rows, precision=4))

    result_map = {timings.key: timings.as_dict() for timings in results}
    exit_code, document = _gate_and_write(
        args,
        args.output,
        BENCH_KIND_DECISION,
        result_map,
        generated_by="repro-experiments bench",
        config={"repeats": repeats, "platform": args.platform, "seed": 0},
        metrics=GATED_FIELDS,
        noun="decide()-per-epoch",
        label="bench",
        extra=reference_sections(args.output, result_map) if args.output else None,
        gap="\n",
    )
    speedups = (document or {}).get("speedup_vs_reference") or {}
    for case, entry in speedups.items():
        if "decide_ms_per_epoch_cached" in entry:
            print(
                f"  {case}: {entry['decide_ms_per_epoch_cached']}x faster cached "
                f"decide, {entry.get('e2e_s', '?')}x faster e2e vs reference"
            )
    return exit_code


# --------------------------------------------------------------- fleet verbs


def _parse_device_mix(entries: Sequence[str]) -> Dict[str, int]:
    """Parse ``--devices PRESET=COUNT`` pairs into a device-mix table."""
    devices: Dict[str, int] = {}
    for entry in entries:
        preset, separator, count_text = entry.partition("=")
        if not separator or not preset:
            raise ValueError(f"--devices wants PRESET=COUNT, got {entry!r}")
        try:
            count = int(count_text)
        except ValueError:
            raise ValueError(f"--devices count must be an integer, got {entry!r}") from None
        if count < 1:
            raise ValueError(f"--devices count must be positive, got {entry!r}")
        if preset in devices:
            raise ValueError(f"--devices names preset {preset!r} twice")
        devices[preset] = count
    return devices


def _run_fleet_specs(args: argparse.Namespace, specs: Sequence[FleetSpec]) -> List[Dict[str, object]]:
    """Execute fleet specs under the shared store session and print the table.

    With ``--store`` each fleet's aggregate payload is streamed to the
    store's bench-case table keyed by its fleet_id (first write wins); with
    ``--resume`` already-stored fleets are reported instead of re-run.
    """
    trained = _trained_dnn()
    payloads: List[Dict[str, object]] = []
    computed = skipped = 0
    with _store_session(args) as store:
        for spec in specs:
            fleet_id = spec.fleet_id()
            payload = (
                store.get_bench_case(fleet_id, BENCH_KIND_FLEET)
                if store is not None and args.resume
                else None
            )
            if payload is None:
                result = run_fleet(spec, backend=args.backend, trained=trained)
                payload = result.to_payload()
                computed += 1
                if store is not None:
                    store.put_bench_case(fleet_id, BENCH_KIND_FLEET, payload)
            else:
                skipped += 1
            payloads.append(payload)
        rows = [
            [
                payload["label"],
                payload["fleet_id"],
                payload["devices"],
                round(float(payload["violation_rate"]), 4),
                payload["total_jobs"],
                len(payload["migrations"]),
                payload["fingerprint"],
            ]
            for payload in payloads
        ]
        headers = ["fleet", "fleet id", "devices", "viol rate", "jobs", "migr", "fingerprint"]
        print(format_table(headers, rows, precision=4))
        if store is not None:
            print(
                f"resume: {skipped} fleet(s) skipped (already stored), {computed} computed"
                if args.resume
                else f"store: {computed} fleet result(s) streamed to {args.store}"
            )
    return payloads


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run fleet spec files (TOML/JSON), or one fleet assembled from flags."""
    specs: List[FleetSpec] = []
    try:
        if args.specs:
            for path in args.specs:
                specs.extend(load_fleet_specs(path))
        else:
            specs.append(
                FleetSpec(
                    scenario=args.scenario,
                    policy=args.policy,
                    seed=args.seed,
                    devices=_parse_device_mix(args.devices or []),
                )
            )
        for spec in specs:
            spec.validate()
    except (FleetSpecError, ValueError) as error:
        print(f"invalid fleet spec: {error}", file=sys.stderr)
        return 2
    if not _usage_ok(
        labels=[spec.label for spec in specs],
        duplicate="duplicate fleet labels {}; give repeated entries distinct 'name' keys",
    ) or _resume_store_conflict(args):
        return 2
    plural = "fleet" if len(specs) == 1 else "fleets"
    source = ", ".join(args.specs) if args.specs else "flags"
    print(f"fleet run: {len(specs)} {plural} from {source} (backend={args.backend})")
    _run_fleet_specs(args, specs)
    return 0


def cmd_fleet_sweep(args: argparse.Namespace) -> int:
    """Compare placement policies (x seeds) on one fleet scenario."""
    if not _usage_ok({"--seeds": args.seeds}):
        return 2
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    try:
        devices = _parse_device_mix(args.devices or [])
        specs = [
            FleetSpec(scenario=args.scenario, policy=policy, seed=seed, devices=devices)
            for policy in args.policies
            for seed in seeds
        ]
        for spec in specs:
            spec.validate()
    except (FleetSpecError, ValueError) as error:
        print(f"invalid fleet sweep: {error}", file=sys.stderr)
        return 2
    if not _usage_ok(
        labels=[spec.label for spec in specs],
        duplicate="duplicate fleet cases {}; list each policy once",
    ) or _resume_store_conflict(args):
        return 2
    print(
        f"fleet sweep: {args.scenario} x {len(args.policies)} policies x "
        f"{len(seeds)} seeds (backend={args.backend})"
    )
    payloads = _run_fleet_specs(args, specs)

    # Mean violation rate per policy, with the delta against the static
    # baseline when it is part of the sweep.
    by_policy: Dict[str, List[float]] = {}
    for spec, payload in zip(specs, payloads):
        by_policy.setdefault(spec.policy, []).append(float(payload["violation_rate"]))
    means = {policy: sum(rates) / len(rates) for policy, rates in by_policy.items()}
    if len(means) > 1:
        static_mean = means.get("static")
        rows = [
            [
                policy,
                len(by_policy[policy]),
                round(mean, 4),
                round(static_mean - mean, 4) if static_mean is not None else "-",
            ]
            for policy, mean in sorted(means.items(), key=lambda item: (item[1], item[0]))
        ]
        print()
        print("policies by mean fleet-wide violation rate:")
        print(format_table(["policy", "runs", "mean viol", "vs static"], rows, precision=4))
    return 0


def cmd_fleet_bench(args: argparse.Namespace) -> int:
    """Benchmark a large orchestrated fleet against the static baseline."""
    if _single_pass_resume_conflict(
        args, "per-case verbs", "the fleet benchmark"
    ) or not _usage_ok({"--devices": args.devices}):
        return 2
    try:
        FleetSpec(scenario=args.scenario, policy=args.policy, seed=args.seed).validate()
    except FleetSpecError as error:
        print(f"invalid fleet spec: {error}", file=sys.stderr)
        return 2
    check_serial = not args.no_serial_check
    print(
        f"fleet bench: {args.devices} devices on {args.scenario}, "
        f"{args.policy} vs static (batched"
        + (", serial identity check)" if check_serial else ")")
    )
    result = run_fleet_bench(
        devices=args.devices,
        scenario=args.scenario,
        policy=args.policy,
        seed=args.seed,
        check_serial=check_serial,
        progress=lambda line: print(f"  {line}"),
    )
    print()
    print(
        f"orchestrated ({result.policy}) {result.orchestrated_s:.2f} s vs "
        f"static {result.static_s:.2f} s over {result.devices} devices"
    )
    if check_serial:
        if not result.fingerprints_identical:
            print(
                "fleet fingerprint mismatch: the batched backend diverged from "
                "the serial reference — do not trust the timing",
                file=sys.stderr,
            )
            return 1
        print(
            f"serial reference {result.serial_s:.2f} s; "
            "fleet fingerprints identical across backends"
        )
    print(
        f"violation rate: {result.orchestrated_violation_rate:.4f} orchestrated vs "
        f"{result.static_violation_rate:.4f} static "
        f"(improvement {result.violation_improvement:+.4f}, "
        f"{result.migrations} migration(s))"
    )
    # Only the orchestrated wall time is gated (the static and serial passes
    # are measured for the report), against a baseline of the same fleet
    # size and scenario.
    exit_code, _ = _gate_and_write(
        args,
        args.output,
        BENCH_KIND_FLEET,
        result.as_dict(),
        generated_by="repro-experiments fleet bench",
        config={
            "devices": result.devices,
            "scenario": result.scenario,
            "policy": result.policy,
            "seed": args.seed,
        },
        metrics=("orchestrated_s",),
        grid=("devices", "scenario"),
        noun="fleet",
        label="fleet bench",
    )
    return exit_code


def cmd_fleet_policies_list(args: argparse.Namespace) -> int:
    """List the registered fleet placement policies."""
    _print_listing(
        "fleet placement policies (* = rebalances/evicts)",
        [
            (entry.name, "*" if entry.metadata.get("rebalances") else " ", entry.summary)
            for entry in FLEET_POLICY_REGISTRY.list()
        ],
    )
    return 0


def cmd_fleet_scenarios_list(args: argparse.Namespace) -> int:
    """List the registered fleet scenarios."""
    _print_listing(
        "fleet scenarios (device mixes scale via --devices)",
        [(name, "", summary) for name, summary in fleet_scenario_summaries()],
    )
    return 0


# --------------------------------------------------------------- store verbs


@_on_existing_store
def cmd_store_ls(args: argparse.Namespace, store: ResultsStore) -> int:
    """List every result in a store: spec ids, labels, headline metrics."""
    results = store.results()
    errors = store.errors()
    bench_runs = ", ".join(f"{kind}={count}" for kind, count in store.bench_run_counts().items())
    if not results and not errors:
        if bench_runs:
            print(f"{args.store}: no results; bench runs: {bench_runs}")
        else:
            print(f"{args.store}: empty store")
        return 0
    if results:
        headers = ["spec id", "case", "fingerprint", "violation rate", "wall s"]
        rows = [
            [
                record.spec_id,
                record.label,
                record.fingerprint,
                round(float(record.metrics.get("violation_rate", 0.0)), 4),
                round(record.wall_time_s, 3) if record.wall_time_s is not None else "-",
            ]
            for record in results
        ]
        print(format_table(headers, rows, precision=4))
    if errors:
        # Unresolved failures: a later successful run of the same spec_id
        # deletes its error row, so everything here still needs attention.
        print(f"\n{len(errors)} failed spec(s) (resolved by a successful re-run):")
        print(
            format_table(
                ["spec id", "case", "error"],
                [[e.spec_id, e.label, e.summary] for e in errors],
                precision=4,
            )
        )
    summary = f"{len(results)} result(s)"
    if errors:
        summary += f", {len(errors)} error(s)"
    if bench_runs:
        summary += f", bench runs: {bench_runs}"
    print(f"{args.store}: {summary}")
    print(f"combined fingerprint digest: {store.fingerprint_digest()}")
    return 0


@_on_existing_store
def cmd_store_show(args: argparse.Namespace, store: ResultsStore) -> int:
    """Print one stored result in full: metrics, timing and the spec TOML."""
    record = store.get(args.spec_id)
    if record is None:
        error = store.get_error(args.spec_id)
        if error is not None:
            # No result, but the spec failed: print the full stored message
            # (including any truncated traceback) instead of "not found".
            print(f"spec id: {error.spec_id}")
            print(f"label:   {error.label}")
            print("error:")
            for line in error.message.rstrip("\n").splitlines():
                print(f"  {line}")
            return 1
        print(f"no result for spec id {args.spec_id!r} in {args.store}", file=sys.stderr)
        return 1
    print(f"spec id:     {record.spec_id}")
    print(f"label:       {record.label}")
    print(f"fingerprint: {record.fingerprint}")
    wall = f"{record.wall_time_s:.3f} s" if record.wall_time_s is not None else "-"
    print(f"wall time:   {wall}")
    print("metrics:")
    for name in sorted(record.metrics):
        print(f"  {name} = {record.metrics[name]}")
    print("spec:")
    for line in record.spec_toml.rstrip("\n").splitlines():
        print(f"  {line}")
    return 0


@_on_existing_store
def cmd_store_export(args: argparse.Namespace, store: ResultsStore) -> int:
    """Export a store to jsonl/csv rows or a replayable TOML spec batch."""
    count = store.export(args.out, format=args.format)
    noun = "spec(s)" if args.format == "toml" else "row(s)"
    print(f"exported {count} {noun} to {args.out} ({args.format})")
    return 0


@_on_existing_store
def cmd_store_gc(args: argparse.Namespace, store: ResultsStore) -> int:
    """Prune a store to its newest ``--keep-latest`` results and compact it."""
    try:
        deleted = store.gc(args.keep_latest)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"gc: deleted {deleted} result(s), kept {len(store)} (newest first)")
    return 0


@_on_existing_store
def cmd_store_diff(args: argparse.Namespace, store: ResultsStore) -> int:
    """Re-execute a stored spec and compare fingerprints (regression oracle).

    The store is append-only, so the stored fingerprint is the *first* run's
    behaviour; a mismatch on re-execution means the codebase's behaviour has
    drifted since the result was recorded.  Exit 1 on mismatch.
    """
    record = store.get(args.spec_id)
    if record is None:
        print(f"no result for spec id {args.spec_id!r} in {args.store}", file=sys.stderr)
        return 1
    try:
        spec = record.spec()
    except SpecError as error:
        print(f"stored spec is unreadable: {error}", file=sys.stderr)
        return 2
    from repro.experiments import run

    recomputed = run(spec).trace.fingerprint()
    if recomputed == record.fingerprint:
        print(f"{record.spec_id} ({record.label}): fingerprints match ({recomputed})")
        return 0
    print(
        f"{record.spec_id} ({record.label}): fingerprint mismatch\n"
        f"  stored:     {record.fingerprint}\n"
        f"  recomputed: {recomputed}\n"
        "behaviour has drifted since this result was recorded",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------- verb table

#: One ``add_argument`` call as data: its flags and its keyword arguments.
Arg = Tuple[Tuple[str, ...], Dict[str, object]]


def _arg(*flags: str, **spec: object) -> Arg:
    return flags, spec


# The arguments and argument groups that several verbs take, each declared once.
_PLATFORM = _arg("--platform", default="odroid_xu3", help="platform preset")
_SEED = _arg("--seed", type=int, default=0, help="seed of seeded scenarios, traffic and fleets")
_SEEDS = _arg("--seeds", type=int, default=1, help="number of seeds per combination")
_SEED_BASE = _arg("--seed-base", type=int, default=0, help="first seed of the range")
_MANAGER = _arg("--manager", default="rtm", help="manager to simulate under")
_OUT = _arg("--out", required=True, metavar="FILE", help="file to write")
_PARAM = _arg(
    "--param",
    action="append",
    metavar="KEY=VALUE",
    help="scenario parameter (record) or DiurnalConfig field (generate) override; repeatable",
)
_TRACE_FILE = _arg("file", metavar="FILE", help="JSONL trace file")
_DUMP_SPEC = _arg(
    "--dump-spec",
    default=None,
    metavar="FILE",
    help="write the experiment spec(s) to FILE ('-' for stdout) instead of running",
)
_FLEET_SCENARIO = _arg(
    "--scenario",
    default="fleet_mixed_platforms",
    help="fleet scenario (see 'fleet scenarios list')",
)
_FLEET_POLICY = _arg(
    "--policy", default="least_loaded", help="placement policy (see 'fleet policies list')"
)
_STORE_PATH = _arg("store", metavar="STORE", help="path to the results store")
_SPEC_ID = _arg("spec_id", metavar="SPEC_ID", help="spec id of the result")
_STORE = (
    _arg(
        "--store",
        default=None,
        metavar="PATH",
        help="append results to this SQLite results store (created if missing)",
    ),
    _arg(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="skip specs whose spec_id is already in --store (default: --no-resume)",
    ),
)
_BACKEND = (
    _arg(
        "--backend",
        default=None,
        choices=sorted(EXECUTION_BACKEND_REGISTRY),
        help="execution backend (default: process when --workers > 1, else serial)",
    ),
    _arg("--workers", type=int, default=1, help="worker processes (process backend only)"),
)
_ROBUSTNESS = (
    _arg(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run failed specs up to N extra times (default 0)",
    ),
    _arg(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep SECONDS * 2^attempt between retry rounds (default 0)",
    ),
    _arg(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abandon the batch when no spec finishes for SECONDS "
        "(process backend only; single-process backends ignore it)",
    ),
)
_FLEET_MIX = (
    _arg(
        "--devices",
        nargs="+",
        default=None,
        metavar="PRESET=COUNT",
        help="device mix override (default: the scenario's own mix)",
    ),
    _arg(
        "--backend",
        default="batched",
        choices=list(FLEET_BACKENDS),
        help="per-device execution backend (identical fingerprints; default batched)",
    ),
)
_BENCH_GATE = (
    _arg(
        "--no-write",
        dest="output",
        action="store_const",
        const=None,
        help="measure and print only; do not write the JSON file",
    ),
    _arg(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="gate the tracked timings against this committed baseline file",
    ),
    _arg(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed slowdown of the tracked timings vs --compare (fraction, default 0.25)",
    ),
)

#: Every verb as ``(path, handler, help, *arguments)``, in ``--help`` order.  A
#: row without a handler is a verb group: the verbs whose paths extend its path.
VERBS: Tuple[tuple, ...] = (
    ("table1", cmd_table1, "reproduce Table I"),
    (
        "fig4a",
        cmd_fig4a,
        "print the Fig 4(a) operating-point sweep",
        _arg("--pareto", action="store_true", help="only print the Pareto front"),
        _arg("--limit", type=int, default=None, help="print at most N points"),
    ),
    ("fig4b", cmd_fig4b, "print the Fig 4(b) accuracy table"),
    (
        "case-study",
        cmd_case_study,
        "run the Section IV budget queries",
        _PLATFORM,
        _arg("--policy", default="max_accuracy"),
        _arg("--clusters", nargs="+", default=None, help="default: the platform's CPU clusters"),
        _arg("--latency-ms", type=float, default=None),
        _arg("--energy-mj", type=float, default=None),
    ),
    (
        "scenario",
        cmd_scenario,
        "replay a runtime scenario",
        _arg("--name", default="fig2", help="scenario name (fig2, single_dnn, ...)"),
        _SEED,
        _PLATFORM,
        _arg(
            "--baselines",
            action="store_true",
            help="also run the governor-only and static baselines",
        ),
        _arg("--events", action="store_true", help="print adaptation events"),
        _DUMP_SPEC,
    ),
    ("scenarios", None, "inspect the scenario registry"),
    ("scenarios list", cmd_scenarios_list, "list registered scenarios"),
    (
        "scenarios compose",
        cmd_scenarios_compose,
        "compose two registry scenarios (mix/splice/scale/perturb)",
        _arg("--op", choices=COMPOSE_OPS, default="mix", help="composition operator"),
        _arg("--a", default="steady", help="first operand scenario"),
        _arg("--b", default=None, help="second operand (mix/splice only; default bursty)"),
        _arg(
            "--at-ms",
            type=float,
            default=None,
            help="splice point in ms (splice only; default 10000)",
        ),
        _arg("--arrival-factor", type=float, default=None, help="timeline factor (scale only)"),
        _arg(
            "--duration-factor",
            type=float,
            default=None,
            help="duration factor (scale only; default: the arrival factor)",
        ),
        _SEED,
        _PLATFORM,
        _arg(
            "--save-trace",
            default=None,
            metavar="FILE",
            help="record the composed workload to a JSONL arrival trace",
        ),
        _arg("--run", action="store_true", help="also simulate the composition under --manager"),
        _MANAGER,
        _DUMP_SPEC,
    ),
    ("trace", None, "record and replay JSONL arrival traces of workload timelines"),
    (
        "trace record",
        cmd_trace_record,
        "record a registry scenario's timeline to a trace file",
        _arg("--scenario", default="rush_hour", help="scenario to record"),
        _SEED,
        _PLATFORM,
        _OUT,
        _PARAM,
    ),
    (
        "trace generate",
        cmd_trace_generate,
        "generate a diurnal traffic trace straight to disk (streaming writer)",
        _OUT,
        _SEED,
        _PLATFORM,
        _arg("--hours", type=float, default=6.0, help="trace length in hours (default 6)"),
        _arg(
            "--duration-ms", type=float, default=None, help="trace length in ms (overrides --hours)"
        ),
        _arg(
            "--arrivals",
            type=int,
            default=None,
            metavar="N",
            help="size the base rate so the trace holds at least N arrivals",
        ),
        _PARAM,
    ),
    (
        "trace replay",
        cmd_trace_replay,
        "replay a trace file under a manager and print the outcome",
        _TRACE_FILE,
        _MANAGER,
        _arg(
            "--platform",
            default=None,
            help="platform preset (default: the platform recorded in the trace)",
        ),
        _DUMP_SPEC,
    ),
    (
        "trace stats",
        cmd_trace_stats,
        "summarise a trace file: arrivals, kinds, inter-arrival gaps",
        _TRACE_FILE,
        _arg(
            "--max-peak-mb",
            type=float,
            default=None,
            metavar="MB",
            help="assert (tracemalloc) that summarising stays under MB of peak memory; "
            "exit 1 if not",
        ),
    ),
    ("managers", None, "inspect the manager registry"),
    ("managers list", cmd_managers_list, "list registered managers"),
    ("platforms", None, "inspect the platform presets"),
    ("platforms list", cmd_platforms_list, "list platform presets with cluster topology"),
    ("faults", None, "inspect the fault-injection vocabulary"),
    ("faults list", cmd_faults_list, "list fault event kinds and chaos scenarios"),
    (
        "run",
        cmd_run,
        "execute experiment spec files (TOML or JSON)",
        _arg("specs", nargs="+", metavar="SPEC", help="spec files to execute"),
        *_BACKEND,
        _arg(
            "--faults",
            default=None,
            metavar="PLAN",
            help="overlay this fault plan (TOML/JSON) on every spec in the batch",
        ),
        *_ROBUSTNESS,
        *_STORE,
    ),
    (
        "sweep",
        cmd_sweep,
        "run a (scenario, manager, seed) grid, optionally in parallel",
        _arg(
            "--scenarios",
            "--scenario",
            nargs="+",
            dest="scenarios",
            default=["steady"],
            help="registered scenario names (see 'scenarios list')",
        ),
        _arg(
            "--managers",
            nargs="+",
            default=["rtm", "governor_only", "static_deployment"],
            help="manager names (see 'managers list')",
        ),
        _SEEDS,
        _SEED_BASE,
        *_BACKEND,
        _PLATFORM,
        _arg(
            "--cache-stats",
            action="store_true",
            help="print operating-point cache hit/miss statistics per case",
        ),
        _DUMP_SPEC,
        *_ROBUSTNESS,
        *_STORE,
    ),
    (
        "bench",
        cmd_bench,
        "time decide()-per-epoch and end-to-end simulation; track in JSON",
        _arg(
            "--scenarios",
            nargs="+",
            default=None,
            help="scenario names (default: the decision-heavy trio; with --smoke: rush_hour)",
        ),
        _arg("--managers", nargs="+", default=None, help="manager names (see 'managers list')"),
        _arg(
            "--repeats",
            type=int,
            default=None,
            help="runs per configuration, best kept (default 3; 1 with --smoke)",
        ),
        _PLATFORM,
        _arg(
            "--backend",
            default="serial",
            choices=["serial", "batched"],
            help="serial: time the decision kernel (default); batched: time the "
            "lock-step engine against the serial reference",
        ),
        _arg(
            "--seeds",
            type=int,
            default=None,
            help="seeds per combination (--backend batched only; default 4, 2 with --smoke)",
        ),
        _arg(
            "--smoke",
            action="store_true",
            help="CI subset: rush_hour x rtm, single repeat (batched: 2x2 grid, 2 seeds)",
        ),
        _arg(
            "--output",
            default=DEFAULT_BENCH_PATH,
            help=f"JSON file to write (default {DEFAULT_BENCH_PATH}; "
            f"{DEFAULT_BATCHED_BENCH_PATH} with --backend batched)",
        ),
        *_BENCH_GATE,
        _DUMP_SPEC,
        *_STORE,
    ),
    ("fleet", None, "orchestrate many-device fleets: placement, migration, benchmarks"),
    (
        "fleet run",
        cmd_fleet_run,
        "run fleet spec files (TOML/JSON), or one fleet built from flags",
        _arg(
            "specs",
            nargs="*",
            metavar="SPEC",
            help="fleet spec files ([[fleet]] batch tables); omit to build one from flags",
        ),
        _FLEET_SCENARIO,
        _FLEET_POLICY,
        _SEED,
        *_FLEET_MIX,
        *_STORE,
    ),
    (
        "fleet sweep",
        cmd_fleet_sweep,
        "compare placement policies on one fleet scenario",
        _arg("--scenario", default="fleet_rush_hour_regional", help="fleet scenario name"),
        _arg(
            "--policies",
            nargs="+",
            default=["static", "least_loaded", "thermal_headroom"],
            help="placement policies to compare (see 'fleet policies list')",
        ),
        _SEEDS,
        _SEED_BASE,
        *_FLEET_MIX,
        *_STORE,
    ),
    (
        "fleet bench",
        cmd_fleet_bench,
        "time a large orchestrated fleet vs static placement; track in JSON",
        _arg("--devices", type=int, default=1000, help="fleet size (weighted preset mix)"),
        _FLEET_SCENARIO,
        _FLEET_POLICY,
        _SEED,
        _arg(
            "--no-serial-check",
            action="store_true",
            help="skip the serial re-run and its fingerprint identity check",
        ),
        _arg(
            "--output",
            default=DEFAULT_FLEET_BENCH_PATH,
            help=f"JSON file to write (default {DEFAULT_FLEET_BENCH_PATH})",
        ),
        *_BENCH_GATE,
        *_STORE,
    ),
    ("fleet policies", None, "inspect the placement-policy registry"),
    ("fleet policies list", cmd_fleet_policies_list, "list registered placement policies"),
    ("fleet scenarios", None, "inspect the fleet-scenario registry"),
    ("fleet scenarios list", cmd_fleet_scenarios_list, "list registered fleet scenarios"),
    ("store", None, "inspect and maintain a results store (SQLite warehouse)"),
    ("store ls", cmd_store_ls, "list stored results and bench runs", _STORE_PATH),
    ("store show", cmd_store_show, "print one stored result in full", _STORE_PATH, _SPEC_ID),
    (
        "store export",
        cmd_store_export,
        "export results to jsonl/csv rows or a replayable TOML batch",
        _STORE_PATH,
        _arg(
            "--format",
            default="jsonl",
            choices=["jsonl", "csv", "toml"],
            help="jsonl/csv: one flat row per result; toml: a replayable spec batch",
        ),
        _OUT,
    ),
    (
        "store gc",
        cmd_store_gc,
        "prune to the newest N results and compact the file",
        _STORE_PATH,
        _arg(
            "--keep-latest",
            type=int,
            required=True,
            metavar="N",
            help="number of newest results to keep",
        ),
    ),
    (
        "store diff",
        cmd_store_diff,
        "re-run a stored spec and compare fingerprints (exit 1 on drift)",
        _STORE_PATH,
        _SPEC_ID,
    ),
)

def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the experiments CLI from :data:`VERBS`."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the experiments of 'Optimising Resource Management "
        "for Embedded Machine Learning' (DATE 2020).",
    )
    # The subparsers of each verb group, keyed by its path ("" is the top level).
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, handler, help_text, *arguments in VERBS:
        group, _, name = path.rpartition(" ")
        subparser = groups[group].add_parser(name, help=help_text)
        if handler is None:
            groups[path] = subparser.add_subparsers(
                dest=f"{path.replace(' ', '_')}_command", required=True
            )
            continue
        for flags, spec in arguments:
            subparser.add_argument(*flags, **spec)
        subparser.set_defaults(func=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-experiments`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct module execution
    raise SystemExit(main())
