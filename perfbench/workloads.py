"""The benchmark's fixed scenarios: what each one simulates, how one run
of it is built and timed, and which outputs it must produce.

Every workload is open loop at a fixed rate in *simulated* time; on the
host, one single-threaded process runs the simulation as fast as it
can.  Host time is process CPU time (self plus children, from
``resource.getrusage``), never wall time: on a shared VM the wall clock
of identical runs spread 26% where CPU time spread 14%.  Untraced runs
also time chunks of ``reference.py`` between slices of the simulation,
so the caller can scale CPU time by the host's speed at the moment.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import resource
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import reference

#: Where runs write manifests and exported artifacts.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Equal slices of simulated time a run is timed in; a reference chunk
#: runs between every two.
SLICES = 20

#: The seed whose simulated-output digests are recorded in
#: ``digests.json`` (the ``sim_identical`` reference).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One fixed scenario.  Every field is part of the spec hash."""

    name: str
    app: str
    #: Offered load (requests per simulated second), Poisson arrivals.
    qps: float
    #: Simulated seconds of arrivals.
    duration: float
    #: Simulated seconds run after the last arrival, so requests still
    #: in flight complete instead of counting as lost.
    drain: float
    machines: int
    drop_operations: Tuple[str, ...] = ()
    #: Attach a MetricsRegistry and write OTLP JSON plus Prometheus
    #: text inside the timed region.
    observe: bool = False
    #: ``(tier, factor)`` CPU slowdowns injected before load starts.
    slow: Tuple[Tuple[str, float], ...] = ()
    #: Default resilience policy for every callee (None = no policy).
    rpc_timeout: Optional[float] = None
    max_retries: int = 0
    retry_budget_ratio: Optional[float] = None
    breaker_reset: Optional[float] = None
    #: Front-door concurrency bound (None = no shedder).
    shed_limit: Optional[int] = None

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON spec."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


_SOCIAL = dict(app="social_network", qps=80.0, duration=10.0, drain=1.0,
               machines=6, drop_operations=("composePost-video",))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The engine / PS / fabric / deployment hot path with observability
    # off (bench_perf_engine's fixed scenario).
    Workload(name="social-steady", **_SOCIAL),
    # The same simulated run with every trace kept, a metrics registry
    # attached and both exporters inside the timed region.
    Workload(name="social-observed", observe=True, **_SOCIAL),
    # Failure and abandon paths: one real tier slowed past saturation
    # behind per-RPC timeouts, budgeted retries, breakers and a shedder.
    Workload(name="overload-retry", slow=(("readPost", 115.0),),
             rpc_timeout=0.02, max_retries=2, retry_budget_ratio=0.2,
             breaker_reset=0.25, shed_limit=3,
             **dict(_SOCIAL, duration=20.0, drain=2.0)),
    # The scale probe: ~15x the events per request of social_network,
    # deep yield-from chains and fan-out joins, synth generation in
    # set-up.
    Workload(name="mesh64-fanout", app="synth:mesh:n64:seed3", qps=80.0,
             duration=1.0, drain=1.0, machines=8),
)}


def cpu_seconds() -> float:
    """Process CPU time so far: user + system, self + children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_chunk() -> float:
    """CPU seconds of one reference chunk.

    The collector is off while it runs, so the chunk never pays for a
    collection of the simulation's heap; the chunk frees everything it
    allocates by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_seconds()
        checksum = reference.chunk()
        elapsed = cpu_seconds() - start
    finally:
        if enabled:
            gc.enable()
    if checksum != reference.CHECKSUM:
        raise RuntimeError(f"reference chunk checksum {checksum} != "
                           f"{reference.CHECKSUM}")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def operation_mix(app, workload: Workload) -> Optional[Dict[str, float]]:
    """The app's default mix without the dropped operations,
    renormalized; None when nothing is dropped."""
    if not workload.drop_operations:
        return None
    mix = {name: weight for name, weight in app.default_mix().items()
           if name not in workload.drop_operations}
    total = sum(mix.values())
    return {name: weight / total for name, weight in mix.items()}


def check_fault_targets(app, workload: Workload) -> None:
    """Refuse to slow a tier the app does not have.

    ``Deployment.slow_down_service`` accepts unknown names silently, so
    a typo would turn the overload scenario into a healthy run."""
    for tier, _factor in workload.slow:
        if tier not in app.services:
            raise ValueError(
                f"workload {workload.name!r} slows unknown tier {tier!r}")


def build_policy(workload: Workload):
    """The default budgeted-retry policy, or None."""
    if workload.rpc_timeout is None:
        return None
    from repro.resilience import BreakerConfig, ResiliencePolicy
    timeout = workload.rpc_timeout
    breaker = None if workload.breaker_reset is None else BreakerConfig(
        window=20, min_volume=10, failure_threshold=0.5,
        reset_timeout=workload.breaker_reset)
    return ResiliencePolicy(
        rpc_timeout=timeout, max_retries=workload.max_retries,
        backoff_base=0.5 * timeout, backoff_jitter=0.5,
        retry_budget_ratio=workload.retry_budget_ratio, breaker=breaker)


def span_count(traces) -> int:
    """Spans across a collection of traces."""
    return sum(1 for trace in traces for _ in trace.root.walk())


def sim_digest(result) -> str:
    """Digest of one run's simulated outputs.

    Covers the issued count, status and resilience counters, and every
    stored trace's operation, status and exact start/end times.  Event
    counts are left out on purpose: a metrics scraper adds events
    without changing any request's outcome."""
    collector = result.collector
    h = hashlib.sha256()
    h.update(json.dumps({
        "issued": result.generator.issued,
        "status": sorted(collector.status_counts.items()),
        "resilience": sorted(result.deployment.resilience_stats.items()),
    }).encode())
    for trace in collector.traces:
        root = trace.root
        h.update(f"{trace.operation}|{trace.status}|{root.start.hex()}|"
                 f"{root.end.hex()}\n".encode())
    return h.hexdigest()


def output_failures(workload: Workload, result) -> List[str]:
    """The output checks that hold for any seed; returns what failed."""
    failures = []
    collector = result.collector
    issued = result.generator.issued
    if issued < 1:
        failures.append("no requests issued")
    if collector.dropped_traces:
        failures.append(f"{collector.dropped_traces} traces evicted; "
                        f"the digest needs every trace")
    if workload.rpc_timeout is None:
        completion = collector.total_collected / max(issued, 1)
        if completion < 0.95:
            failures.append(f"completed {completion:.3f} of issued < 0.95")
        bad = {s: n for s, n in collector.status_counts.items() if s != "ok"}
        if bad:
            failures.append(f"failure statuses {bad}")
    else:
        stats = result.deployment.resilience_stats
        for counter in ("timeouts", "retries", "breaker_rejected", "shed"):
            if stats[counter] <= 0:
                failures.append(f"no {counter} recorded")
    return failures


def run_once(workload: Workload, seed: int, out_dir: Path,
             tracer=None) -> dict:
    """Build, run and check one workload in this process.

    Returns the measurement record.  ``setup_s`` is the CPU time from
    process start to the first simulated event, so the caller must be
    a fresh process for it to mean what it says."""
    from repro.apps.registry import build_app
    from repro.core.experiment import simulate
    from repro.core.provisioning import balanced_provision
    from repro.obs import MetricsRegistry, to_prometheus_text, \
        traces_to_otlp_json
    from repro.resilience import LoadShedder

    t0 = cpu_seconds()
    app = build_app(workload.app)
    build_s = cpu_seconds() - t0
    check_fault_targets(app, workload)
    replicas = balanced_provision(app,
                                  target_qps=max(workload.qps * 1.5, 50))

    def arm_faults(deployment):
        for tier, factor in workload.slow:
            deployment.slow_down_service(tier, factor)

    if tracer is not None:
        tracer.install()
    shedder = None if workload.shed_limit is None \
        else LoadShedder(workload.shed_limit)
    result = simulate(app, qps=workload.qps, duration=workload.duration,
                      n_machines=workload.machines, replicas=replicas,
                      seed=seed, mix=operation_mix(app, workload),
                      default_policy=build_policy(workload),
                      shedder=shedder, setup=arm_faults,
                      metrics=MetricsRegistry() if workload.observe
                      else None,
                      run_env=False)
    env = result.deployment.env
    if tracer is not None:
        tracer.reset()

    setup_s = cpu_seconds()
    horizon = workload.duration + workload.drain
    # The timed stages: the simulation in SLICES equal slices of
    # simulated time, then the export.  Slicing ``env.run`` changes no
    # simulated output: it schedules no event and the digest covers
    # every trace.
    stages = [functools.partial(env.run, until=horizon * k / SLICES)
              for k in range(1, SLICES + 1)]
    exported = {}
    if workload.observe:
        def export():
            otlp = traces_to_otlp_json(result.collector.traces).encode()
            prom = to_prometheus_text(result.metrics, now=env.now).encode()
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{workload.name}.otlp.json").write_bytes(otlp)
            (out_dir / f"{workload.name}.prom").write_bytes(prom)
            exported["sha"] = hashlib.sha256(otlp + prom).hexdigest()
        stages.append(export)
    # Untraced, a reference chunk runs before every stage and after the
    # last, so the host's speed is sampled next to every stretch of
    # timed work.  A traced run times its stages only.
    stage_s, chunk_s = [], []
    if tracer is None:
        reference_chunk()
    for stage in stages:
        if tracer is None:
            chunk_s.append(reference_chunk())
        start = cpu_seconds()
        stage()
        stage_s.append(cpu_seconds() - start)
    if tracer is None:
        chunk_s.append(reference_chunk())
    cpu_s = sum(stage_s)
    export_cpu_s = stage_s[-1] if workload.observe else 0.0
    export_sha = exported.get("sha")
    # Host-speed scale: reference CPU seconds on the nominal host per
    # CPU second here.
    speed = (reference.NOMINAL_CHUNK_S * len(chunk_s) / sum(chunk_s)
             if chunk_s else 1.0)
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    stored = len(result.collector.traces)
    record = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "speed": speed,
        "chunk_s": chunk_s,
        "peak_rss_mb": rss,
        "build_s": build_s,
        "issued": result.generator.issued,
        "events": env.events_scheduled,
        "collected": result.collector.total_collected,
        "stored": stored,
        "spans": span_count(result.collector.traces),
        "status_counts": dict(result.collector.status_counts),
        "resilience": dict(result.deployment.resilience_stats),
        "export_cpu_s": export_cpu_s,
        "export_sha256": export_sha,
        "digest": sim_digest(result),
        "failures": output_failures(workload, result),
    }
    if tracer is not None:
        record["trace"] = tracer.report(result)
    return record


def verify_export(workload: Workload, out_dir: Path, record: dict) -> None:
    """Re-import the written OTLP through ``load_traces`` and compare
    trace and span counts with what the run stored."""
    from repro.apps.synth.clone import load_traces
    text = (out_dir / f"{workload.name}.otlp.json").read_text()
    traces = load_traces(text)
    if len(traces) != record["stored"] \
            or span_count(traces) != record["spans"]:
        record["failures"].append(
            f"OTLP re-import gave {len(traces)} traces / "
            f"{span_count(traces)} spans, stored {record['stored']} / "
            f"{record['spans']}")


def add_source_path(root: Path) -> None:
    """Make the checkout's ``src`` importable, or exit non-zero."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
