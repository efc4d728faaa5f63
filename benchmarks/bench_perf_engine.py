"""Perf-trajectory harness: how fast does the DES engine actually run?

The suite now carries metrics scraping, tracing, resilience hooks, and
predictors on every RPC; nobody had measured what that costs.  This
benchmark runs one *fixed* social_network scenario (fixed qps,
duration, machines, seed — so the simulated event count is
deterministic) under three observability configurations and emits a
machine-readable ``benchmarks/results/BENCH_perf_engine.json`` with
the engine-speed numbers every future PR has to beat:

* ``obs-off`` — bare simulation: no metrics registry, no exporters.
  The engine's fast run loop (no ``step_hook``); its
  ``requests_per_wall_sec`` is the simulation-speed baseline the CI
  profile-smoke job gates on, kept at the payload top level next to
  the diagnostic ``events_per_wall_sec``.
* ``obs-full`` — everything on: metrics registry attached, every
  trace feeding per-span counters/histograms, the simulator flight
  recorder hooked into the event loop, and the counted wall includes
  the batch OTLP JSON export of every stored trace plus the
  Prometheus text exposition: the worst-case fully-instrumented cost
  (including the memory pressure of retaining every span tree, which
  is a real and intended part of what sampling removes).
* ``obs-sampled`` — the same instrumented run under deterministic
  head sampling at rate 0.1: per-trace costs (storage, histograms,
  span walks, OTLP export volume) shrink ~10x while exact counters
  stay exact.  Run twice with the same seed to assert the exported
  artifacts are byte-identical, and its p95/p99 must stay within 5%
  of the unsampled run's.

The headline assertions: sampled mode must reach >= 2x the
requests-per-wall-second of obs-full (sampling must actually buy its
keep), and obs-off must beat obs-full (the no-op fast path is real).
Every mode simulates the same issued requests, so these are the same
ratios of wall time they were when counted in events; requests are
the unit because events per request is itself a quantity hot-path
work reduces, and events/sec would reward adding events.

Wall-clock reads are the *measurement* here, not simulation state, so
the SIM002 suppressions below are deliberate; the simulated side stays
fully deterministic (the event count is asserted identical across the
instrumented modes, which differ only in what they observe).
"""

import json
import resource
import time

from helpers import RESULTS_DIR, report, run_once

from repro.apps.registry import build_app
from repro.core.experiment import simulate
from repro.core.provisioning import balanced_provision
from repro.obs import FlightRecorder, MetricsRegistry, \
    to_prometheus_text, traces_to_otlp_json
from repro.tracing import TraceSampler

#: The fixed scenario.  Moderate load on the full 36-service graph:
#: large enough that per-event overheads dominate setup and that the
#: 10%-sampled percentile estimates have a usable effective n (the 5%
#: accuracy gate below needs ~1000+ kept traces).  The operation mix
#: drops ``composePost-video``: a 1.4%-share operation with ~3x the
#: bulk latency parks the end-to-end p99 on a density gap between two
#: mixture modes, where *no* estimator — sampled or not — is stable;
#: the accuracy gate needs a statistically well-posed quantile.
SCENARIO = {
    "app": "social_network",
    "qps": 80.0,
    "duration": 300.0,
    "machines": 6,
    "seed": 11,
    "drop_operations": ["composePost-video"],
}


def _scenario_mix(app):
    """The fixed operation mix: the app default, renormalized after
    removing the operations the scenario excludes."""
    mix = {name: weight for name, weight in app.default_mix().items()
           if name not in SCENARIO["drop_operations"]}
    total = sum(mix.values())
    return {name: weight / total for name, weight in mix.items()}

#: Sampling configuration for the ``obs-sampled`` mode.  Rate <= 0.1
#: per the acceptance gate; the seed keys the per-trace hash so
#: repeated runs keep the identical subset.
SAMPLE_RATE = 0.1
SAMPLE_SEED = 1

#: The scale probe: a *generated* mesh (64 services — nearly twice the
#: largest built-in app) at the same offered load, uninstrumented.
#: The built-in scenario above measures per-event overheads on a
#: realistic graph; this one measures how events/sec holds up when the
#: graph itself grows — fan-out joins, shared downstream revisits, and
#: per-service state all scale with the topology, and a regression
#:  that only bites at scale would hide in the 36-service number.  The
#: generator spec is fixed, so the simulated workload is byte-stable.
SCALE_SCENARIO = {
    "app": "synth:mesh:n64:seed3",
    "qps": 80.0,
    "duration": 60.0,
    "machines": 8,
    "seed": 7,
}


def run_scale_probe():
    """One uninstrumented (obs-off) run of the fixed generated mesh.

    Returns ``(result, wall)``; feeds the ``scale_probe`` block of
    ``BENCH_perf_engine.json``."""
    app = build_app(SCALE_SCENARIO["app"])
    replicas = balanced_provision(
        app, target_qps=max(SCALE_SCENARIO["qps"] * 1.5, 50))
    start = time.perf_counter()  # simlint: disable=SIM002
    result = simulate(app, qps=SCALE_SCENARIO["qps"],
                      duration=SCALE_SCENARIO["duration"],
                      n_machines=SCALE_SCENARIO["machines"],
                      replicas=replicas, seed=SCALE_SCENARIO["seed"])
    wall = time.perf_counter() - start  # simlint: disable=SIM002
    return result, wall


def _run_mode(mode):
    """One deterministic run in one observability mode.

    Returns ``(result, wall, artifacts, recorder)`` where ``wall``
    counts the simulation plus — for the instrumented modes — the
    batch OTLP export of all stored traces and the Prometheus text
    exposition (that is the cost an instrumented run actually pays),
    ``artifacts`` maps exporter name to its serialized bytes, and
    ``recorder`` is the obs-full flight recorder (None elsewhere).
    """
    app = build_app(SCENARIO["app"])
    replicas = balanced_provision(
        app, target_qps=max(SCENARIO["qps"] * 1.5, 50))
    metrics = None if mode == "obs-off" else MetricsRegistry()
    sampler = TraceSampler(SAMPLE_RATE, seed=SAMPLE_SEED) \
        if mode == "obs-sampled" else None
    recorder = FlightRecorder() if mode == "obs-full" else None
    setup = (lambda dep: recorder.install(dep.env)) \
        if recorder is not None else None

    start = time.perf_counter()  # simlint: disable=SIM002
    result = simulate(app, qps=SCENARIO["qps"],
                      duration=SCENARIO["duration"],
                      n_machines=SCENARIO["machines"],
                      replicas=replicas, seed=SCENARIO["seed"],
                      mix=_scenario_mix(app),
                      metrics=metrics, sampler=sampler, setup=setup)
    if recorder is not None:
        recorder.uninstall()
    artifacts = {}
    if metrics is not None:
        artifacts["otlp"] = traces_to_otlp_json(
            result.collector.traces).encode()
        artifacts["prometheus"] = to_prometheus_text(
            metrics, now=SCENARIO["duration"]).encode()
    wall = time.perf_counter() - start  # simlint: disable=SIM002
    return result, wall, artifacts, recorder


def run_fixed_scenario():
    """All modes, one deterministic pass each; obs-sampled twice to
    check artifact byte-stability.  Returns a dict of mode -> run."""
    runs = {}
    for mode in ("obs-off", "obs-full", "obs-sampled"):
        runs[mode] = _run_mode(mode)
    runs["obs-sampled-repeat"] = _run_mode("obs-sampled")
    return runs


def _mode_stats(result, wall):
    env = result.deployment.env
    return {
        "events_scheduled": env.events_scheduled,
        "wall_sec": round(wall, 3),
        "events_per_wall_sec": round(env.events_scheduled / wall, 1),
        "requests_per_wall_sec": round(result.generator.issued / wall,
                                       1),
        "p95_ms": round(result.tail(0.95) * 1e3, 3),
        "p99_ms": round(result.tail(0.99) * 1e3, 3),
    }


def test_perf_engine(benchmark):
    runs = run_once(benchmark, run_fixed_scenario)
    off_result, off_wall, _, _ = runs["obs-off"]
    full_result, full_wall, full_art, recorder = runs["obs-full"]
    samp_result, samp_wall, samp_art, _ = runs["obs-sampled"]
    _, _, samp_art2, _ = runs["obs-sampled-repeat"]

    events = off_result.deployment.env.events_scheduled
    issued = off_result.generator.issued
    assert events > 0 and issued > 0
    assert off_result.completion_ratio() > 0.95, \
        "the fixed scenario must not saturate — it measures the " \
        "engine, not queueing"

    # Observability must not perturb the simulation: the instrumented
    # modes schedule the same events and complete the same requests.
    assert full_result.deployment.env.events_scheduled \
        == samp_result.deployment.env.events_scheduled
    assert full_result.collector.total_collected \
        == samp_result.collector.total_collected, \
        "exact request counts must survive sampling"
    assert full_result.collector.status_counts \
        == samp_result.collector.status_counts, \
        "exact failure counts must survive sampling"

    # Determinism: same seed + rate => byte-identical exported
    # artifacts across runs.
    for name in ("otlp", "prometheus"):
        assert samp_art[name] == samp_art2[name], \
            f"sampled {name} export must be byte-identical across " \
            f"same-seed runs"

    # Accuracy: sampled percentiles within 5% of the unsampled run's.
    for p in (0.95, 0.99):
        full_tail = full_result.tail(p)
        samp_tail = samp_result.tail(p)
        assert abs(samp_tail - full_tail) / full_tail < 0.05, \
            f"sampled p{p * 100:.0f} drifted {samp_tail:.6f} vs " \
            f"{full_tail:.6f}"

    scale_result, scale_wall = run_scale_probe()
    scale_app = scale_result.deployment.app
    assert len(scale_app.services) >= 64, \
        "the scale probe must exercise a graph bigger than any " \
        "built-in app"
    assert scale_result.completion_ratio() > 0.95, \
        "the scale probe must not saturate — it measures the engine " \
        "at graph scale, not queueing"

    off = _mode_stats(off_result, off_wall)
    full = _mode_stats(full_result, full_wall)
    sampled = _mode_stats(samp_result, samp_wall)
    scale = _mode_stats(scale_result, scale_wall)
    scale["services"] = len(scale_app.services)
    scale["operations"] = len(scale_app.operations)
    sampled["effective_sample_size"] = \
        samp_result.collector.effective_sample_size
    sampled["stored_traces"] = samp_result.collector.total_stored
    sampled["unsampled_traces"] = samp_result.collector.unsampled_traces
    sampled["tail_rescued"] = samp_result.collector.tail_rescued

    # The speed gates.  The no-op fast path must be cheaper than full
    # instrumentation, and sampling must claw back at least half of
    # the instrumented cost per request.
    speedup = (sampled["requests_per_wall_sec"]
               / full["requests_per_wall_sec"])
    assert off["requests_per_wall_sec"] > full["requests_per_wall_sec"], \
        "obs-off must out-run obs-full: the uninstrumented fast path " \
        "is the point of having one"
    assert speedup >= 2.0, \
        f"obs-sampled must reach >= 2x obs-full requests/sec, got " \
        f"{speedup:.2f}x"

    payload = {
        "scenario": SCENARIO,
        # Top-level keys mirror obs-off; requests_per_wall_sec is the
        # baseline the CI profile-smoke job gates against.
        "events_scheduled": events,
        "requests_issued": issued,
        "wall_sec": off["wall_sec"],
        "events_per_wall_sec": off["events_per_wall_sec"],
        "requests_per_wall_sec": off["requests_per_wall_sec"],
        "wall_sec_per_sim_sec": round(off_wall / SCENARIO["duration"],
                                      4),
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
        "modes": {"obs-off": off, "obs-full": full,
                  "obs-sampled": sampled},
        "scale_probe": {"scenario": SCALE_SCENARIO, **scale},
        "profile": recorder.to_dict(),
        "sampling": samp_result.collector.sampling_description(),
        "sampled_vs_full_speedup": round(speedup, 2),
        "sampled_artifacts_byte_identical": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_perf_engine.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = ["fixed scenario: " + json.dumps(SCENARIO, sort_keys=True)]
    for mode in ("obs-off", "obs-full", "obs-sampled"):
        stats = payload["modes"][mode]
        lines.append(f"[{mode}] " + "  ".join(
            f"{key}={stats[key]}" for key in sorted(stats)))
    lines.append(f"sampled_vs_full_speedup: {speedup:.2f}x "
                 f"(gate: >= 2.0x)")
    lines.append("[scale-probe] " + json.dumps(SCALE_SCENARIO,
                                               sort_keys=True))
    lines.append("[scale-probe] " + "  ".join(
        f"{key}={scale[key]}" for key in sorted(scale)))
    lines.append("sampled artifacts byte-identical across same-seed "
                 "runs: True")
    report("BENCH_perf_engine", "\n".join(lines),
           sampling=payload["sampling"], seed=SCENARIO["seed"])
