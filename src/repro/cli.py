"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the suite's applications with their Table 1 characteristics.
``describe APP``
    Show one application's services, operations, and default mix.
``simulate APP --qps N --duration S``
    Deploy and drive one application; print the measurement summary.
    ``--metrics-out``/``--traces-out`` attach the observability layer
    and write Prometheus text exposition / OTLP JSON artifacts.
    ``--degradation`` arms graceful degradation — criticality-aware
    front-door shedding, the brownout controller, and the app's
    declared degradation policies — and reports brownout transitions,
    degradation events, and fidelity counts.
``report qos APP``
    Run one experiment and attribute QoS violations to culprit tiers
    (the Sec. 7 "which microservice started the cascade" analysis);
    ``--delay``/``--slow`` inject tier faults to provoke one;
    ``--json`` emits the machine-readable episode report instead of
    the rendered tables.
``report degradation APP``
    Run one experiment with graceful degradation armed (optionally
    under ``--delay``/``--slow`` faults) and report the brownout level
    trajectory, per-criticality-class goodput and utility rates, and
    the degradation event counters; ``--json`` for the machine-readable
    form.
``report critical-path APP``
    Aggregated per-tier critical-path breakdown over one run's traces:
    presence on the path, p50/p95/p99 share of end-to-end latency, and
    the exclusive vs. blocked split of each tier's self time — "which
    tier's speedup moves the tail" from one command.
``profile APP``
    Run one scenario with the simulator flight recorder attached and
    print where the *simulator's* wall time goes: per-event-type engine
    loop attribution plus scoped sections (collection, exporters).
    ``--out`` writes machine-readable ``profile.json``;
    ``--sample-rate`` profiles the sampled-tracing configuration.
``predict [--scenario NAME]``
    Train a violation predictor on seeded runs of a ramped-fault
    scenario, evaluate it on held-out seeds (precision / recall /
    lead time), and optionally re-run with proactive mitigation
    (``--mitigate prescale|pretrip|shed``) to print the
    violations-avoided scorecard.  ``--out`` writes the report JSON.
``chaos APP [--scenario NAME ...]``
    Run chaos scenarios (deterministic fault schedules with optional
    health-checked failover) and print resilience scorecards:
    detection time, MTTR, blast radius, goodput lost, attributed
    culprit.  ``--out`` writes the scorecards as JSON; a steady-state
    violation on a no-fault baseline exits non-zero.
``region APP [--mode failover|sticky]``
    Run a two-region deployment through a region outage behind the geo
    front door: per-region clusters over a cross-region RTT matrix,
    async replication with bounded staleness, health-probe failover.
    Prints the global resilience scorecard (blast radius per region,
    cross-region MTTR, stale reads); ``--compare-sticky`` also runs the
    sticky-routing ablation and reports the goodput ratio; ``--out``
    writes JSON; ``--max-mttr`` gates the exit code (CI's region-smoke
    hook), as does a broken no-fault baseline.
``synth generate SPEC``
    Build a parametric synthetic topology (``synth:PATTERN:nSIZE:
    seedSEED``, six patterns from sequential chain to random mesh) and
    emit its canonical byte-stable topology JSON.  Every command that
    takes an APP also accepts these specs directly
    (``repro simulate synth:mesh:n32:seed7 ...``).
``synth clone TRACES_FILE --name NAME``
    Infer a matching application from an OTLP trace export
    (``simulate --traces-out``): call-graph structure,
    serial-vs-parallel dispatch, per-tier service-time distributions,
    and payload sizes.  ``--validate`` re-simulates the clone and gates
    (exit code) on the per-tier p50/p95/p99 fidelity tolerance;
    ``--report`` writes the comparison as JSON.
``synth matrix``
    Sweep patterns x sizes x seeds; each cell smoke-runs a clean
    baseline plus a chaos scenario and lands in one consolidated
    byte-stable report (markdown to stdout, JSON via ``--out``).
``provision APP --qps N``
    Print the balanced replica allocation (Sec. 3.8) for a target load.
``sweep APP --qps A B C``
    Throughput/tail curve over a list of offered loads (analytic).
``dot APP``
    Emit the microservice dependency graph in Graphviz DOT format
    (the Fig. 4-8 diagrams).
``lint [PATHS]``
    Run the simulation-safety static analysis (``simlint`` rule codes
    SIM001-SIM007), the topology validator over the registered
    application graphs (TOPO001-TOPO006, including region pins), and
    the fault-schedule validators (FAULT001-FAULT004, including
    dangling region targets); non-zero exit on findings.  Takes every
    flag of ``python -m repro.analysis_static`` (one shared parser).
``lint --app NAME --load RPS [--config plan.json]``
    Flow-analysis mode: statically check one application's deployment
    plan at the declared load using the analytic queueing backend —
    saturated tiers (CAP001-CAP004), infeasible deadlines/timeouts
    (DLINE001-DLINE004), and cross-layer policy inconsistencies
    (CFG001-CFG004).  ``--format sarif`` emits a SARIF 2.1.0 log for
    CI annotation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

# Each handler imports the modules its command runs, so ``repro --help``
# and ``repro lint`` load neither a simulator nor numpy.
from .stats.tables import format_table

__all__ = ["main"]


class _CommandError(Exception):
    """A bad request found past argument parsing: :func:`main` prints
    ``error: <message>`` and returns 2, like an argparse usage error."""


def _bounded(kind, ok, message: str):
    """An argparse type: ``kind(text)``, refused with ``message`` unless
    ``ok(value)``.  It keeps ``kind``'s name, so a malformed number
    still reads ``invalid float value``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = kind.__name__
    return parse


_positive_int = _bounded(int, lambda v: v > 0, "must be > 0")
_nonnegative_int = _bounded(int, lambda v: v >= 0, "must be >= 0")
_positive_float = _bounded(float, lambda v: v > 0, "must be > 0")
_probability = _bounded(float, lambda v: 0.0 <= v <= 1.0,
                        "must be in [0, 1]")
_sample_rate = _bounded(float, lambda v: 0.0 < v <= 1.0,
                        "must be in (0, 1]")
_utilization = _bounded(float, lambda v: 0.0 < v < 1.0,
                        "must be in (0, 1)")


def _app_arg(text: str) -> str:
    """An application name: a registered app, or a ``synth:`` generator
    spec (``synth:PATTERN:nSIZE:seedSEED``) resolved on demand."""
    from .apps.registry import app_names
    if text in app_names() or text.startswith("synth:"):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown application {text!r}; choose from "
        f"{', '.join(app_names())} or a generator spec like "
        f"synth:mesh:n32:seed7")


def _parse_fault(text: str, what: str) -> tuple:
    """Parse a ``SERVICE:VALUE`` fault-injection flag."""
    service, sep, value = text.partition(":")
    if not sep or not service:
        raise argparse.ArgumentTypeError(
            f"expected SERVICE:{what}, got {text!r}")
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad {what.lower()} in {text!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(f"{what.lower()} must be > 0")
    return service, number


def _provisioned(args):
    """``(app, replicas)``: the APP balanced-provisioned for 1.5x the
    offered load (at least 50 QPS)."""
    from .apps.registry import build_app
    from .core.provisioning import balanced_provision
    app = build_app(args.app)
    return app, balanced_provision(app,
                                   target_qps=max(args.qps * 1.5, 50))


def _fault_setup(args, app):
    """The ``simulate(setup=...)`` hook that injects ``--delay`` and
    ``--slow``, or None when neither flag was given."""
    for service, _ in args.delay + args.slow:
        if service not in app.services:
            raise _CommandError(f"{app.name} has no service {service!r}")
    if not (args.delay or args.slow):
        return None

    def inject(deployment):
        for service, seconds in args.delay:
            deployment.delay_service(service, seconds)
        for service, factor in args.slow:
            deployment.slow_down_service(service, factor)
    return inject


def _resilience_policy(args):
    """Build a default policy from the resilience flags, or None when
    no flag was given (the policy-free fast path)."""
    if not (args.retries or args.rpc_timeout or args.breakers):
        return None
    from .resilience import BreakerConfig, ResiliencePolicy
    timeout = args.rpc_timeout
    return ResiliencePolicy(
        rpc_timeout=timeout,
        max_retries=args.retries,
        backoff_base=(timeout or 0.01) * 0.5 if args.retries else 0.0,
        retry_budget_ratio=0.2 if args.retries else None,
        breaker=BreakerConfig() if args.breakers else None)


def _sampler_from_args(args):
    """Build a TraceSampler from ``--sample-rate``/``--sample-seed``,
    or None when sampling is off (rate absent or 1.0)."""
    if args.sample_rate is None or args.sample_rate >= 1.0:
        return None
    from .tracing.sampling import TraceSampler
    return TraceSampler(args.sample_rate, seed=args.sample_seed)


def _write(path: str, payload, what: str) -> None:
    """Write ``payload`` to ``path`` (text as is, anything else as
    indented sorted JSON) and say so."""
    with open(path, "w") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{what} written to {path}")


def _fmt_seconds(value) -> str:
    return "-" if value is None else f"{value:.2f}s"


def _cmd_list(_args) -> int:
    from .core.suite import DeathStarBench
    print(DeathStarBench().table1())
    return 0


def _cmd_describe(args) -> int:
    from .apps.registry import build_app
    app = build_app(args.app)
    rows = [[name, svc.language, svc.kind,
             f"{svc.work_mean * 1e6:.0f}", f"{svc.freq_sensitivity:.2f}"]
            for name, svc in sorted(app.services.items())]
    print(format_table(
        ["service", "language", "kind", "work (us)", "freq beta"],
        rows, title=f"{app.name}: {app.unique_microservices} services, "
                    f"protocol={app.protocol}"))
    print()
    mix = app.default_mix()
    rows = [[op.name, f"{mix[op.name]:.1%}", op.root.call_count(),
             op.root.depth(), f"{app.operation_work(op.name) * 1e6:.0f}"]
            for op in app.operations.values()]
    print(format_table(
        ["operation", "mix", "RPCs", "depth", "CPU work (us)"], rows,
        title="operations"))
    return 0


def _cmd_simulate(args) -> int:
    from .core.experiment import simulate
    app, replicas = _provisioned(args)
    policy = _resilience_policy(args)
    metrics = None
    if args.metrics_out or args.traces_out:
        from .obs import MetricsRegistry
        metrics = MetricsRegistry(scrape_period=args.scrape_period)
    sampler = _sampler_from_args(args)
    manager = shedder = None
    if args.degradation:
        from .resilience import arm_degradation
        manager, shedder = arm_degradation(app, qps=args.qps)
    result = simulate(app, qps=args.qps, duration=args.duration,
                      n_machines=args.machines, replicas=replicas,
                      seed=args.seed, default_policy=policy,
                      metrics=metrics, sampler=sampler,
                      shedder=shedder, degradation=manager)
    rows = [
        ["offered load (QPS)", f"{args.qps:g}"],
        ["throughput (req/s)", f"{result.throughput():.1f}"],
        ["mean latency (ms)", f"{result.mean_latency() * 1e3:.2f}"],
        ["p95 (ms)", f"{result.tail(0.95) * 1e3:.2f}"],
        ["p99 (ms)", f"{result.tail(0.99) * 1e3:.2f}"],
        ["QoS target (ms)", f"{app.qos_latency * 1e3:.1f}"],
        ["QoS met", str(result.qos_met())],
        ["completion ratio", f"{result.completion_ratio():.3f}"],
    ]
    if policy is not None:
        stats = result.deployment.resilience_stats
        rows += [
            ["success ratio", f"{result.success_ratio():.3f}"],
            ["retries", str(stats["retries"])],
            ["rpc timeouts", str(stats["timeouts"])],
            ["breaker rejections", str(stats["breaker_rejected"])],
        ]
    if manager is not None:
        collector = result.collector
        shed_by_class = ", ".join(
            f"{crit}={count}" for crit, count
            in sorted(shedder.shed_by_class.items())) or "none"
        rows += [
            ["brownout level (final/peak)",
             f"{manager.level}/"
             f"{max([ev.level_to for ev in manager.events], default=0)}"],
            ["brownout transitions", str(len(manager.events))],
            ["degradation events",
             f"{manager.degradation_events} "
             f"(drops={sum(manager.drops.values())}, "
             f"fallbacks={sum(manager.fallbacks.values())}, "
             f"fanout cuts={sum(manager.fanout_cuts.values())})"],
            ["shed by class", shed_by_class],
            ["degraded / full fidelity",
             f"{collector.degraded_count} / "
             f"{collector.full_fidelity_count}"],
        ]
    dropped = result.collector.dropped_traces
    if dropped:
        rows.append(["dropped traces", str(dropped)])
    if sampler is not None:
        rows += [
            ["trace sampling", f"rate={sampler.rate:g} "
                               f"seed={sampler.seed}"],
            ["effective sample size",
             str(result.collector.effective_sample_size)],
        ]
    print(format_table(["metric", "value"], rows,
                       title=f"{app.name} measurement"))
    if args.metrics_out:
        from .obs import to_prometheus_text
        _write(args.metrics_out,
               to_prometheus_text(result.metrics, now=result.duration),
               "metrics")
    if args.traces_out:
        from .obs import traces_to_otlp_json
        _write(args.traces_out,
               traces_to_otlp_json(result.collector.traces), "traces")
    if args.dashboard:
        from .stats.dashboard import render_dashboard
        print()
        print(render_dashboard(result))
    return 0


def _cmd_report_qos(args) -> int:
    from .core.experiment import simulate
    from .obs import MetricsRegistry, attribute_qos_violations
    app, replicas = _provisioned(args)
    setup = _fault_setup(args, app)
    result = simulate(app, qps=args.qps, duration=args.duration,
                      n_machines=args.machines, replicas=replicas,
                      seed=args.seed, metrics=MetricsRegistry(),
                      sampler=_sampler_from_args(args), setup=setup)
    report = attribute_qos_violations(
        result, target=args.target, p=args.percentile,
        window=args.window)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True,
                         allow_nan=False))
    else:
        print(report.render())
    return 0


def _cmd_report_critical_path(args) -> int:
    from .core.experiment import simulate
    from .tracing.analysis import critical_path_breakdown
    app, replicas = _provisioned(args)
    result = simulate(app, qps=args.qps, duration=args.duration,
                      n_machines=args.machines, replicas=replicas,
                      seed=args.seed, sampler=_sampler_from_args(args))
    collector = result.collector
    traces = [t for t in collector.traces
              if t.ok and t.start >= result.warmup]
    if not traces:
        print("error: no successful post-warmup traces to analyze",
              file=sys.stderr)
        return 1
    breakdown = critical_path_breakdown(traces)
    if args.json:
        payload = {
            "app": app.name, "qps": args.qps,
            "duration": args.duration, "seed": args.seed,
            "traces_analyzed": len(traces),
            "sampling": collector.sampling_description(),
            "services": breakdown,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [[svc,
             f"{row['presence']:.1%}",
             f"{row['share_p50']:.1%}",
             f"{row['share_p95']:.1%}",
             f"{row['share_p99']:.1%}",
             f"{row['mean_exclusive'] * 1e3:.3f}",
             f"{row['mean_blocked'] * 1e3:.3f}"]
            for svc, row in sorted(
                breakdown.items(),
                key=lambda item: -item[1]["share_p95"])]
    title = (f"{app.name} critical-path breakdown "
             f"({len(traces)} traces")
    desc = collector.sampling_description()
    if desc["mode"] != "unsampled":
        title += (f", head-sampled rate={desc['rate']:g} "
                  f"n={desc['effective_sample_size']}")
    title += ")"
    print(format_table(
        ["service", "on path", "share p50", "share p95", "share p99",
         "excl (ms)", "blocked (ms)"], rows, title=title))
    return 0


def _cmd_report_degradation(args) -> int:
    from .core.experiment import simulate
    from .resilience import arm_degradation
    app, replicas = _provisioned(args)
    setup = _fault_setup(args, app)
    manager, shedder = arm_degradation(app, qps=args.qps)
    result = simulate(app, qps=args.qps, duration=args.duration,
                      n_machines=args.machines, replicas=replicas,
                      seed=args.seed, shedder=shedder,
                      degradation=manager, setup=setup)
    collector = result.collector
    window = result.duration - result.warmup
    ok = collector.ok_by_class(start=result.warmup)
    utility = collector.utility_by_class(start=result.warmup)
    if args.json:
        payload = {
            "app": app.name, "qps": args.qps,
            "duration": args.duration, "seed": args.seed,
            "brownout_events": manager.event_log(),
            "final_level": manager.level,
            "degradation_events": manager.degradation_events,
            "drops": dict(manager.drops),
            "fallbacks": dict(manager.fallbacks),
            "fanout_cuts": dict(manager.fanout_cuts),
            "shed_by_class": dict(shedder.shed_by_class),
            "admitted_by_class": dict(shedder.admitted_by_class),
            "degraded_responses": collector.degraded_count,
            "full_fidelity_responses": collector.full_fidelity_count,
            "by_criticality": {crit: dict(counts) for crit, counts
                               in collector.by_criticality.items()},
            "goodput_by_class": {crit: count / window
                                 for crit, count in ok.items()},
            "utility_rate_by_class": {crit: total / window
                                      for crit, total
                                      in utility.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True,
                         allow_nan=False))
        return 0
    rows = []
    for crit in sorted(collector.by_criticality):
        counts = collector.by_criticality[crit]
        rows.append([
            crit,
            str(counts.get("ok", 0)),
            str(shedder.shed_by_class.get(crit, 0)),
            str(sum(counts.values()) - counts.get("ok", 0)
                - counts.get("shed", 0)),
            f"{ok.get(crit, 0) / window:.1f}",
            f"{utility.get(crit, 0.0) / window:.1f}",
        ])
    print(format_table(
        ["class", "ok", "shed", "failed", "goodput (req/s)",
         "utility (u/s)"], rows,
        title=f"{app.name} degradation report (post-warmup)"))
    print()
    rows = [
        ["final brownout level", str(manager.level)],
        ["brownout transitions", str(len(manager.events))],
        ["subtrees dropped", str(sum(manager.drops.values()))],
        ["fallbacks served", str(sum(manager.fallbacks.values()))],
        ["fan-out cuts", str(sum(manager.fanout_cuts.values()))],
        ["degraded responses", str(collector.degraded_count)],
        ["full-fidelity responses",
         str(collector.full_fidelity_count)],
    ]
    print(format_table(["metric", "value"], rows, title="degradation"))
    if manager.events:
        print()
        rows = [[f"{ev.time:.1f}", f"{ev.level_from} -> {ev.level_to}",
                 "-" if ev.p95 is None else f"{ev.p95 * 1e3:.1f}",
                 f"{ev.occupancy:.2f}"]
                for ev in manager.events]
        print(format_table(
            ["time (s)", "level", "p95 (ms)", "occupancy"], rows,
            title="brownout trajectory"))
    return 0


def _cmd_profile(args) -> int:
    from .obs.profile import profile_simulation
    result, recorder = profile_simulation(
        args.app, qps=args.qps, duration=args.duration,
        machines=args.machines, seed=args.seed,
        sample_rate=args.sample_rate, sample_seed=args.sample_seed)
    print(recorder.render(top=args.top))
    collector = result.collector
    desc = collector.sampling_description()
    print(f"\nrun: {collector.total_collected} requests, "
          f"{len(collector.traces)} traces stored, "  # simlint: disable=SIM007
          f"sampling={desc['mode']} (rate={desc['rate']:g})")
    if args.out:
        payload = {
            "profile": recorder.to_dict(),
            "scenario": {
                "app": args.app, "qps": args.qps,
                "duration": args.duration, "machines": args.machines,
                "seed": args.seed,
            },
            "sampling": desc,
        }
        _write(args.out, payload, "profile")
    return 0


def _cmd_predict(args) -> int:
    from .predict import predict_scenario_names, run_predict_pipeline
    if args.list_scenarios:
        from .predict import predict_scenario
        rows = [[name, predict_scenario(name).description]
                for name in predict_scenario_names()]
        print(format_table(["scenario", "description"], rows,
                           title="predict scenarios"))
        return 0
    if args.scenario not in predict_scenario_names():
        raise _CommandError(f"unknown scenario {args.scenario!r}; have: "
                            f"{', '.join(predict_scenario_names())}")
    overlap = set(args.train_seeds) & set(args.eval_seeds)
    if overlap:
        raise _CommandError(f"train/eval seeds overlap: "
                            f"{sorted(overlap)} — held-out means held out")
    report = run_predict_pipeline(
        scenario=args.scenario, model_kind=args.model,
        train_seeds=tuple(args.train_seeds),
        eval_seeds=tuple(args.eval_seeds),
        horizon=args.horizon, threshold=args.threshold,
        mitigate=tuple(args.mitigate))
    print(report.render())
    if args.out:
        _write(args.out, report.to_dict(), "report")
    return 0


def _cmd_chaos(args) -> int:
    from .chaos import (DEFAULT_SUITE, run_chaos_suite, scenario,
                        scenario_names)
    from .cluster.health import HealthCheckConfig
    if args.list_scenarios:
        rows = [[name, scenario(name).description]
                for name in scenario_names()]
        print(format_table(["scenario", "description"], rows,
                           title="chaos scenarios"))
        return 0
    if not args.app:
        raise _CommandError("APP is required (or use --list-scenarios)")
    names = args.scenario or DEFAULT_SUITE
    unknown = [n for n in names if n not in scenario_names()]
    if unknown:
        raise _CommandError(f"unknown scenario(s): {', '.join(unknown)}")
    app, replicas = _provisioned(args)
    failover = False if args.no_failover else HealthCheckConfig(
        probe_interval=args.probe_interval,
        provision_delay=args.provision_delay)
    runs = run_chaos_suite(
        app, names, qps=args.qps, duration=args.duration,
        n_machines=args.machines, replicas=replicas, seed=args.seed,
        failover=failover, default_policy=_resilience_policy(args))
    for run in runs:
        print(run.scorecard.render())
        print()

    rows = [[run.scenario,
             "held" if run.scorecard.steady_state_ok else "VIOLATED",
             _fmt_seconds(run.scorecard.detection_time),
             _fmt_seconds(run.scorecard.mttr),
             f"{run.scorecard.blast_radius:.1f}",
             f"{run.scorecard.goodput_lost * 100:.1f}%",
             run.scorecard.attributed or "-"]
            for run in runs]
    print(format_table(
        ["scenario", "steady state", "detection", "MTTR",
         "blast (tier-s)", "goodput lost", "attributed"], rows,
        title=f"{app.name} chaos suite @ {args.qps:g} QPS"))

    if args.out:
        payload = {
            "app": app.name, "qps": args.qps,
            "duration": args.duration, "seed": args.seed,
            "failover": not args.no_failover,
            "scenarios": [run.scorecard.to_dict() for run in runs],
        }
        _write(args.out, payload, "scorecards")

    # A broken steady state on a no-fault baseline means the suite is
    # not measuring resilience at all — fail loudly (CI keys off this).
    broken = [run.scenario for run in runs
              if run.scorecard.fault_count == 0
              and not run.scorecard.steady_state_ok]
    if broken:
        print(f"error: steady-state hypothesis violated without faults "
              f"in: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


def _cmd_region(args) -> int:
    from .chaos.schedule import FaultSchedule
    from .chaos.scorecard import SteadyStateHypothesis
    from .region import (RegionOutage, run_region_scenario,
                         two_region_topology)

    app, replicas = _provisioned(args)
    # A geo-failover SLO must budget the wide-area legs a failed-over
    # request pays (out and back, plus probe slack).
    qos = args.qos if args.qos is not None \
        else app.qos_latency + 4 * args.rtt
    hypothesis = SteadyStateHypothesis(latency=qos)

    def topo():
        return two_region_topology(machines=args.machines,
                                   rtt=args.rtt,
                                   primary_share=args.primary_share)

    primary = topo().names[0]

    def schedule():
        return FaultSchedule([RegionOutage(
            primary, start=args.outage_at,
            duration=None if args.permanent else args.outage_duration)])

    def run(faults, mode, scenario):
        return run_region_scenario(
            app, faults, topology=topo(), qps=args.qps,
            duration=args.duration, mode=mode, seed=args.seed,
            replicas=replicas, hypothesis=hypothesis,
            scenario=scenario)

    baseline = run(None, args.mode, "region-baseline")
    outage = run(schedule(), args.mode, f"region-outage-{args.mode}")
    print(outage.scorecard.render())
    print()
    sticky = None
    if args.compare_sticky and args.mode == "failover":
        sticky = run(schedule(), "sticky", "region-outage-sticky")

    runs = [baseline, outage] + ([sticky] if sticky else [])
    rows = [[r.scenario,
             "held" if r.scorecard.steady_state_ok else "VIOLATED",
             _fmt_seconds(r.scorecard.detection_time),
             _fmt_seconds(r.scorecard.cross_region_mttr),
             str(r.scorecard.stale_reads),
             f"{r.post_fault_goodput(qos):.1f}"]
            for r in runs]
    print(format_table(
        ["run", "steady state", "detection", "cross-region MTTR",
         "stale reads", "good QPS after fault"], rows,
        title=f"{app.name} region suite @ {args.qps:g} QPS "
              f"(outage of {primary})"))
    ratio = None
    if sticky is not None:
        sticky_good = sticky.post_fault_goodput(qos)
        failover_good = outage.post_fault_goodput(qos)
        ratio = failover_good / sticky_good if sticky_good > 0 \
            else float("inf")
        print(f"failover vs sticky post-fault goodput: "
              f"{failover_good:.1f} vs {sticky_good:.1f} req/s "
              f"({ratio:.2f}x)")

    if args.out:
        payload = {
            "app": app.name, "qps": args.qps,
            "duration": args.duration, "seed": args.seed,
            "rtt": args.rtt, "qos": qos, "mode": args.mode,
            "runs": {r.scenario: r.scorecard.to_dict() for r in runs},
            "post_fault_goodput": {
                r.scenario: r.post_fault_goodput(qos) for r in runs},
        }
        if ratio is not None:
            payload["goodput_ratio"] = \
                None if ratio == float("inf") else ratio
        _write(args.out, payload, "scorecards")

    if not baseline.scorecard.steady_state_ok:
        print("error: steady-state hypothesis violated without faults: "
              f"{baseline.scorecard.steady_state_detail}",
              file=sys.stderr)
        return 1
    if args.max_mttr is not None:
        mttr = outage.scorecard.cross_region_mttr
        if mttr is None or mttr > args.max_mttr:
            print(f"error: cross-region MTTR "
                  f"{'unrecovered' if mttr is None else f'{mttr:.2f}s'}"
                  f" exceeds the {args.max_mttr:g}s bound",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_provision(args) -> int:
    from .analytic.model import AnalyticModel
    from .apps.registry import build_app
    from .core.provisioning import balanced_provision
    app = build_app(args.app)
    replicas = balanced_provision(app, target_qps=args.qps,
                                  target_util=args.util)
    model = AnalyticModel(app, replicas=replicas, cores=2)
    utils = model.utilizations(args.qps)
    rows = [[svc, replicas[svc], f"{utils[svc]:.2f}"]
            for svc in sorted(replicas, key=lambda s: -replicas[s])]
    print(format_table(
        ["service", "replicas", f"utilization @ {args.qps:g} QPS"],
        rows, title=f"{app.name}: balanced provisioning "
                    f"({sum(replicas.values())} replicas)"))
    return 0


def _cmd_sweep(args) -> int:
    from .analytic.model import AnalyticModel
    from .apps.registry import build_app
    from .core.provisioning import balanced_provision
    app = build_app(args.app)
    replicas = balanced_provision(app, target_qps=max(args.qps) * 0.7)
    model = AnalyticModel(app, replicas=replicas, cores=2)
    rows = []
    for qps in args.qps:
        tail = model.tail(qps)
        rows.append([f"{qps:g}",
                     f"{tail * 1e3:.2f}" if tail != float("inf")
                     else "saturated",
                     str(tail <= app.qos_latency)])
    print(format_table(["QPS", "p99 (ms)", "QoS met"], rows,
                       title=f"{app.name} load sweep (analytic)"))
    return 0


def _cmd_dot(args) -> int:
    from .apps.registry import build_app
    from .services.graphviz import to_dot
    print(to_dot(build_app(args.app)))
    return 0


def _cmd_lint(args) -> int:
    from .analysis_static.cli import run
    return run(args, args.lint_parser)


def _cmd_synth_generate(args) -> int:
    from .apps.synth import parse_spec, generate, topology_json
    app = generate(parse_spec(args.spec))
    payload = topology_json(app)
    if args.out:
        _write(args.out, payload,
               f"{app.name}: {len(app.services)} services, "
               f"{len(app.operations)} operations; topology")
    else:
        print(payload, end="")
    return 0


def _cmd_synth_clone(args) -> int:
    from .apps.synth import (CloneConfig, clone_from_traces,
                             load_traces, topology_json,
                             validate_clone)
    config = CloneConfig(min_service_samples=args.min_samples)
    try:
        with open(args.traces) as fh:
            traces = load_traces(fh.read())
        result = clone_from_traces(traces, name=args.name, config=config)
    except (OSError, ValueError) as exc:
        raise _CommandError(f"{args.traces}: {exc}") from None
    app = result.app
    print(f"{app.name}: cloned {len(app.services)} services, "
          f"{len(app.operations)} operations from "
          f"{result.used_traces}/{result.source_traces} traces")
    for finding in result.warnings:
        print(f"warning: {finding.code} {finding.message}",
              file=sys.stderr)
    if args.out:
        _write(args.out, topology_json(app), "topology")
    if not args.validate:
        return 0
    report = validate_clone(traces, result, qps=args.qps,
                            duration=args.duration,
                            n_machines=args.machines, seed=args.seed)
    print()
    print(report.render())
    if report.skipped_tiers:
        print(f"skipped (too few samples): "
              f"{', '.join(report.skipped_tiers)}")
    if args.report:
        _write(args.report, report.to_dict(), "fidelity report")
    return 0 if report.ok else 1


def _cmd_synth_matrix(args) -> int:
    from .analysis_static.topology import TopologyError
    from .apps.synth import MatrixSpec, run_matrix
    spec = MatrixSpec(
        patterns=tuple(args.patterns), sizes=tuple(args.sizes),
        seeds=tuple(args.seeds), qps=args.qps,
        duration=args.duration, n_machines=args.machines,
        scenario=None if args.scenario == "none" else args.scenario)
    try:
        report = run_matrix(
            spec, progress=(None if args.quiet else
                            lambda line: print(line, file=sys.stderr)))
    except TopologyError as exc:
        raise _CommandError(str(exc)) from None
    print(report.render_markdown())
    if args.out:
        _write(args.out, report.to_json(), "matrix report")
    return 0 if report.ok else 1


def _add_run_flags(parser, qps: float, duration: float, machines: int,
                   seed: Optional[int] = 0, qps_help: Optional[str] = None,
                   machines_help: Optional[str] = None) -> None:
    """``--qps/--duration/--machines`` (and ``--seed`` unless ``seed``
    is None) with one command's defaults."""
    parser.add_argument("--qps", type=_positive_float, default=qps,
                        help=qps_help)
    parser.add_argument("--duration", type=_positive_float,
                        default=duration)
    parser.add_argument("--machines", type=_positive_int,
                        default=machines, help=machines_help)
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed)


def _add_fault_flags(parser) -> None:
    parser.add_argument("--delay", metavar="SERVICE:SECONDS",
                        type=lambda t: _parse_fault(t, "SECONDS"),
                        action="append", default=[],
                        help="add fixed latency to one tier (repeatable)")
    parser.add_argument("--slow", metavar="SERVICE:FACTOR",
                        type=lambda t: _parse_fault(t, "FACTOR"),
                        action="append", default=[],
                        help="multiply one tier's CPU work (repeatable)")


def _add_resilience_flags(parser) -> None:
    parser.add_argument("--retries", type=_nonnegative_int, default=0,
                        help="max retries per RPC (default: no retries)")
    parser.add_argument("--rpc-timeout", type=_positive_float,
                        default=None, help="per-RPC timeout in seconds")
    parser.add_argument("--breakers", action="store_true",
                        help="enable per-edge circuit breakers")


def _add_sampling_flags(parser) -> None:
    parser.add_argument(
        "--sample-rate", type=_sample_rate, default=None,
        metavar="RATE",
        help="deterministic head-sampling rate for traces in (0, 1]; "
             "exact counters stay unsampled, percentiles are computed "
             "on the kept subset, throughput is weight-corrected")
    parser.add_argument(
        "--sample-seed", type=int, default=0, metavar="SEED",
        help="sampling seed (independent of the simulation seed)")


def _command(sub, name: str, func, help_text: str, app: bool = True):
    """One sub-command parser dispatching to ``func``, taking an APP
    positional unless ``app`` is false."""
    parser = sub.add_parser(name, help=help_text)
    parser.set_defaults(func=func)
    if app:
        parser.add_argument("app", type=_app_arg, metavar="APP")
    return parser


def build_parser() -> argparse.ArgumentParser:
    from .analysis_static.cli import lint_arguments
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeathStarBench reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "list", _cmd_list, "list suite applications", app=False)
    _command(sub, "describe", _cmd_describe, "describe one application")

    p = _command(sub, "simulate", _cmd_simulate, "run one app under load")
    _add_run_flags(p, qps=100.0, duration=20.0, machines=6)
    p.add_argument("--dashboard", action="store_true",
                   help="render the full text dashboard")
    _add_resilience_flags(p)
    p.add_argument("--degradation", action="store_true",
                   help="arm graceful degradation: criticality-aware "
                        "front-door shedding, brownout control, and "
                        "the app's declared degradation policies")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write Prometheus text exposition to FILE")
    p.add_argument("--traces-out", metavar="FILE", default=None,
                   help="write OTLP JSON trace dump to FILE")
    p.add_argument("--scrape-period", type=_positive_float, default=1.0,
                   help="metrics scrape cadence in sim seconds")
    _add_sampling_flags(p)

    p = sub.add_parser(
        "report", help="post-run analysis reports")
    report_sub = p.add_subparsers(dest="report_kind", required=True)
    p = _command(report_sub, "qos", _cmd_report_qos,
                 "attribute QoS violations to culprit tiers")
    _add_run_flags(p, qps=100.0, duration=20.0, machines=6)
    p.add_argument("--target", type=_positive_float, default=None,
                   help="latency target in seconds "
                        "(default: the app's QoS bound)")
    p.add_argument("--percentile", type=_probability, default=0.99,
                   help="tail percentile checked against the target")
    p.add_argument("--window", type=_positive_float, default=None,
                   help="violation-detection window in sim seconds")
    _add_fault_flags(p)
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable episode report")
    _add_sampling_flags(p)

    p = _command(report_sub, "degradation", _cmd_report_degradation,
                 "run with graceful degradation armed and report the "
                 "brownout trajectory and per-class goodput/utility")
    _add_run_flags(p, qps=100.0, duration=20.0, machines=6)
    _add_fault_flags(p)
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable degradation report")

    p = _command(report_sub, "critical-path", _cmd_report_critical_path,
                 "aggregated per-tier critical-path breakdown")
    _add_run_flags(p, qps=100.0, duration=20.0, machines=6)
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable breakdown")
    _add_sampling_flags(p)

    p = _command(sub, "profile", _cmd_profile,
                 "flight-record the simulator's own runtime")
    _add_run_flags(p, qps=80.0, duration=10.0, machines=6, seed=11)
    p.add_argument("--top", type=_nonnegative_int, default=12,
                   help="rows per attribution table")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write machine-readable profile JSON to FILE")
    _add_sampling_flags(p)

    p = _command(sub, "predict", _cmd_predict,
                 "train/evaluate online violation prediction", app=False)
    p.add_argument("--scenario", default="backpressure",
                   help="ramped-fault scenario (see --list-scenarios)")
    p.add_argument("--list-scenarios", action="store_true",
                   help="list registered scenarios and exit")
    p.add_argument("--model", default="logistic",
                   choices=["majority", "heuristic", "logistic"])
    p.add_argument("--train-seeds", type=int, nargs="+",
                   default=[1, 4, 5], metavar="SEED",
                   help="seeds of the training runs")
    p.add_argument("--eval-seeds", type=int, nargs="+",
                   default=[2, 3], metavar="SEED",
                   help="held-out seeds to evaluate on")
    p.add_argument("--horizon", type=_positive_float, default=8.0,
                   help="label lead-time horizon in sim seconds")
    p.add_argument("--threshold", type=_positive_float, default=0.6,
                   help="alert probability threshold")
    p.add_argument("--mitigate", action="append", default=[],
                   choices=["prescale", "pretrip", "shed"],
                   help="re-run held-out seeds with this proactive "
                        "action (repeatable)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the pipeline report as JSON to FILE")

    p = _command(sub, "chaos", _cmd_chaos,
                 "run chaos scenarios and print scorecards", app=False)
    p.add_argument("app", nargs="?", type=_app_arg, metavar="APP")
    p.add_argument("--scenario", action="append", default=[],
                   metavar="NAME",
                   help="scenario to run (repeatable; default: the "
                        "built-in suite)")
    p.add_argument("--list-scenarios", action="store_true",
                   help="list registered scenarios and exit")
    _add_run_flags(p, qps=60.0, duration=20.0, machines=6)
    p.add_argument("--no-failover", action="store_true",
                   help="disable health-checked failover (drain-only "
                        "recovery)")
    p.add_argument("--probe-interval", type=_positive_float,
                   default=0.5, help="health probe cadence in seconds")
    p.add_argument("--provision-delay", type=_positive_float,
                   default=3.0,
                   help="replacement provisioning delay in seconds")
    _add_resilience_flags(p)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the scorecards as JSON to FILE")

    p = _command(sub, "region", _cmd_region,
                 "multi-region failover experiment")
    _add_run_flags(p, qps=60.0, duration=25.0, machines=3,
                   qps_help="global offered load across all populations",
                   machines_help="machines per region")
    p.add_argument("--mode", choices=["failover", "sticky"],
                   default="failover",
                   help="front-door routing mode (sticky = ablation)")
    p.add_argument("--outage-at", type=_positive_float, default=5.0,
                   help="when the primary-region outage injects")
    p.add_argument("--outage-duration", type=_positive_float,
                   default=6.0, help="outage length in seconds")
    p.add_argument("--permanent", action="store_true",
                   help="the outage never repairs")
    p.add_argument("--rtt", type=_positive_float, default=0.04,
                   help="one-way inter-region latency in seconds")
    p.add_argument("--primary-share", type=_probability, default=0.6,
                   help="fraction of users homed in the primary")
    p.add_argument("--qos", type=_positive_float, default=None,
                   help="global latency SLO in seconds (default: the "
                        "app's QoS bound plus 4x the RTT)")
    p.add_argument("--compare-sticky", action="store_true",
                   help="also run the sticky-routing ablation and "
                        "report the goodput ratio")
    p.add_argument("--max-mttr", type=_positive_float, default=None,
                   help="fail (exit 1) if cross-region MTTR exceeds "
                        "this bound or routing never recovers")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the scorecards as JSON to FILE")

    p = sub.add_parser(
        "synth", help="synthetic topologies: generate, clone, matrix")
    synth_sub = p.add_subparsers(dest="synth_kind", required=True)
    p = _command(synth_sub, "generate", _cmd_synth_generate,
                 "build a parametric topology and emit its canonical "
                 "JSON", app=False)
    p.add_argument("spec", metavar="SPEC",
                   help="generator spec, e.g. synth:mesh:n32:seed7")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write topology JSON to FILE instead of stdout")
    p = _command(synth_sub, "clone", _cmd_synth_clone,
                 "infer an application from an OTLP trace export",
                 app=False)
    p.add_argument("traces", metavar="TRACES_FILE",
                   help="OTLP trace export file (repro simulate "
                        "--traces-out)")
    p.add_argument("--name", default="clone",
                   help="name for the cloned application")
    p.add_argument("--min-samples", type=_nonnegative_int, default=20,
                   help="span samples per tier below which a SYN002 "
                        "warning is raised")
    p.add_argument("--validate", action="store_true",
                   help="re-simulate the clone and gate on the "
                        "per-tier percentile fidelity tolerance")
    _add_run_flags(p, qps=100.0, duration=20.0, machines=4, seed=1,
                   qps_help="validation load (match the source export)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the clone's topology JSON to FILE")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write the fidelity report JSON to FILE "
                        "(with --validate)")
    p = _command(synth_sub, "matrix", _cmd_synth_matrix,
                 "patterns x sizes x seeds scenario sweep with "
                 "baseline + chaos smoke runs", app=False)
    p.add_argument("--patterns", nargs="+",
                   default=["chain", "fanout", "branch", "tree",
                            "ptree", "mesh"],
                   help="topology patterns to sweep")
    p.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32],
                   help="service counts to sweep")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                   help="generator seeds to sweep")
    _add_run_flags(p, qps=120.0, duration=12.0, machines=4, seed=None)
    p.add_argument("--scenario", default="machine_crash",
                   help="chaos scenario per cell ('none' skips the "
                        "fault leg)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the consolidated report JSON to FILE")

    p = _command(sub, "provision", _cmd_provision, "balanced provisioning")
    p.add_argument("--qps", type=_positive_float, default=300.0)
    p.add_argument("--util", type=_utilization, default=0.6)

    p = _command(sub, "sweep", _cmd_sweep, "analytic load sweep")
    p.add_argument("--qps", type=_positive_float, nargs="+",
                   default=[50, 100, 200, 400, 800])

    _command(sub, "dot", _cmd_dot, "dependency graph in DOT format")

    p = sub.add_parser(
        "lint", parents=[lint_arguments()],
        help="simulation-safety static analysis and "
             "capacity/deadline flow analysis")
    p.set_defaults(func=_cmd_lint, lint_parser=p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
