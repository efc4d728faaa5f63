"""Simulator flight recorder: where does the *simulator's* time go?

The paper's whole methodology is cycle attribution — Figs 10-12 break
request time into application, kernel, and network cycles.  This module
does the same for the simulator itself, because the ROADMAP's engine
-speed work needs a profile to attack and a harness to regress against.
Two complementary views:

**Per-event attribution** (the engine loop).  A hook on
:attr:`Environment.step_hook <repro.sim.engine.Environment>` timestamps
every event as it is popped; the wall-clock gap to the *next* pop is
charged twice, on two independent axes:

* to the popped event's *type* — for :class:`Process` events, to the
  process name with trailing instance ids stripped, so ten thousand
  ``transfer-…`` processes aggregate into one row;
* to the *subsystem* whose code the event wakes: the module that owns
  the first waiting callback (for a process resumption, the module
  defining the process's generator), collapsed to ``repro``-relative
  dotted form — ``sim.ps``, ``net.fabric``, ``core.deployment``,
  ``resilience.*``, ``obs.*`` — so the report answers "which layer is
  the engine spending its wall time in", the simulator-facing version
  of the paper's cycle attribution.

One ``perf_counter`` call plus a per-code-object cache lookup per
event; when no recorder is installed the hook is ``None`` and the
engine runs its uninstrumented fast loop.

**Scoped sections** (everything around the loop).  Explicit
``with recorder.scope("export.otlp"): …`` timers with stack-based
self/total accounting, for costs that are invisible at event
granularity: trace collection, metric scrapes, exporters, report
generation.  Sections may nest; ``self_sec`` excludes child scopes.

The two views overlap by design (a scope entered inside an event
callback is also part of that event's gap) — they answer different
questions and must not be summed.

Wall-clock reads here are the measurement itself, not simulation
state — the SIM002 suppressions are deliberate and the recorder never
feeds wall time back into the simulation.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

__all__ = ["FlightRecorder", "profile_simulation"]

#: Strips replica/instance suffixes from process names so per-instance
#: processes collapse into per-subsystem rows: ``transfer-42`` ->
#: ``transfer``, ``scraper_3`` -> ``scraper``.
_ID_SUFFIX = re.compile(r"[-_.:#]\d+$")


def _subsystem_of(filename: str) -> str:
    """Collapse a source path to its ``repro``-relative dotted module:
    ``…/src/repro/net/fabric.py`` -> ``net.fabric``.  Code outside the
    package (user scripts, stdlib callbacks) reports as ``(external)``."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "(external)"
    tail = path[marker + len("/repro/"):]
    if tail.endswith(".py"):
        tail = tail[:-3]
    return tail.replace("/", ".")


class FlightRecorder:
    """Wall-clock and event-count attribution for one simulation run.

    Usage::

        rec = FlightRecorder()
        rec.install(env)
        ... run the simulation ...
        rec.uninstall()
        with rec.scope("export.otlp"):
            ... serialize traces ...
        print(rec.render())
        json.dump(rec.to_dict(), fh)
    """

    def __init__(self) -> None:
        #: event key -> [wall_seconds, count]
        self.event_stats: Dict[str, List[float]] = {}
        #: subsystem (dotted module under repro) -> [wall_seconds, count]
        self.subsystem_stats: Dict[str, List[float]] = {}
        #: section name -> [total_seconds, self_seconds, entries]
        self.sections: Dict[str, List[float]] = {}
        self._env = None
        self._pending: Optional[tuple] = None
        self._scope_stack: List[list] = []
        self._installed_wall = 0.0
        self._install_t: Optional[float] = None
        self._install_seq: Optional[int] = None
        #: code object -> subsystem label, so classification is one
        #: dict hit per event after the first sighting of a call site.
        self._code_cache: Dict[Any, str] = {}
        self.events_observed = 0

    # -- engine-loop attribution ----------------------------------------
    def install(self, env) -> None:
        """Attach to ``env``: every stepped event is now attributed."""
        if self._env is not None:
            raise RuntimeError("flight recorder already installed")
        if env.step_hook is not None:
            raise RuntimeError("environment already has a step hook")
        self._env = env
        self._pending = None
        self._install_t = time.perf_counter()  # simlint: disable=SIM002
        self._install_seq = env.events_scheduled
        env.step_hook = self._hook

    def uninstall(self) -> None:
        """Detach; the engine returns to its uninstrumented fast loop."""
        env = self._env
        if env is None:
            raise RuntimeError("flight recorder is not installed")
        now = time.perf_counter()  # simlint: disable=SIM002
        self._close_pending(now)
        self._installed_wall += now - self._install_t
        self._install_t = None
        env.step_hook = None
        self._env = None

    def _hook(self, event) -> None:
        now = time.perf_counter()  # simlint: disable=SIM002
        self._close_pending(now)
        name = type(event).__name__
        if name == "Process":
            name = "Process:" + _ID_SUFFIX.sub("", event.name)
        self._pending = (name, self._classify(event), now)
        self.events_observed += 1

    def _classify(self, event) -> str:
        """Subsystem about to run: the module owning the first waiting
        callback — for a process resumption, the module defining the
        process's generator (`Process._resume` itself lives in the
        engine and would attribute everything there)."""
        callbacks = event.callbacks
        if not callbacks:
            return "(unwatched)"
        callback = callbacks[0]
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "_generator", None)
        code = generator.gi_code if generator is not None \
            else getattr(callback, "__code__", None)
        if code is None:
            return "(builtin)"
        label = self._code_cache.get(code)
        if label is None:
            label = self._code_cache[code] = _subsystem_of(
                code.co_filename)
        return label

    def _close_pending(self, now: float) -> None:
        pending = self._pending
        if pending is None:
            return
        key, subsystem, t0 = pending
        gap = now - t0
        stat = self.event_stats.get(key)
        if stat is None:
            stat = self.event_stats[key] = [0.0, 0]
        stat[0] += gap
        stat[1] += 1
        stat = self.subsystem_stats.get(subsystem)
        if stat is None:
            stat = self.subsystem_stats[subsystem] = [0.0, 0]
        stat[0] += gap
        stat[1] += 1
        self._pending = None

    # -- scoped sections -------------------------------------------------
    @contextmanager
    def scope(self, name: str):
        """Time a code section; nested scopes subtract from ``self_sec``."""
        t0 = time.perf_counter()  # simlint: disable=SIM002
        frame = [name, 0.0]
        self._scope_stack.append(frame)
        try:
            yield
        finally:
            total = time.perf_counter() - t0  # simlint: disable=SIM002
            self._scope_stack.pop()
            acc = self.sections.get(name)
            if acc is None:
                acc = self.sections[name] = [0.0, 0.0, 0]
            acc[0] += total
            acc[1] += total - frame[1]
            acc[2] += 1
            if self._scope_stack:
                self._scope_stack[-1][1] += total

    # -- reporting -------------------------------------------------------
    @property
    def recorded_wall_sec(self) -> float:
        """Wall seconds spent with the recorder installed."""
        wall = self._installed_wall
        if self._install_t is not None:
            wall += time.perf_counter() - self._install_t  # simlint: disable=SIM002
        return wall

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable profile (the ``profile.json`` payload)."""
        events = {
            key: {"wall_sec": round(stat[0], 6), "count": int(stat[1])}
            for key, stat in sorted(
                self.event_stats.items(),
                key=lambda item: item[1][0], reverse=True)
        }
        subsystems = {
            key: {"wall_sec": round(stat[0], 6), "count": int(stat[1])}
            for key, stat in sorted(
                self.subsystem_stats.items(),
                key=lambda item: item[1][0], reverse=True)
        }
        sections = {
            name: {"total_sec": round(acc[0], 6),
                   "self_sec": round(acc[1], 6),
                   "entries": int(acc[2])}
            for name, acc in sorted(
                self.sections.items(),
                key=lambda item: item[1][1], reverse=True)
        }
        wall = self.recorded_wall_sec
        out: Dict[str, Any] = {
            "recorded_wall_sec": round(wall, 6),
            "events_observed": self.events_observed,
            "events": events,
            "subsystems": subsystems,
            "sections": sections,
        }
        if self._install_seq is not None and self._env is not None:
            out["events_scheduled"] = (
                self._env.events_scheduled - self._install_seq)
        if wall > 0 and self.events_observed:
            out["events_per_wall_sec"] = round(
                self.events_observed / wall, 1)
        return out

    def render(self, top: int = 12) -> str:
        """Human-readable top-N report."""
        lines = ["simulator flight recorder"]
        wall = self.recorded_wall_sec
        lines.append(f"  recorded wall time: {wall:.3f}s, "
                     f"{self.events_observed} events")
        if self.events_observed and wall > 0:
            lines.append(f"  engine throughput:  "
                         f"{self.events_observed / wall:,.0f} events/s")
        if self.event_stats:
            lines.append(f"  -- event loop (top {top} by wall time) --")
            width = max(len(k) for k in self.event_stats)
            ranked = sorted(self.event_stats.items(),
                            key=lambda item: item[1][0], reverse=True)
            for key, (sec, count) in ranked[:top]:
                share = sec / wall if wall > 0 else 0.0
                lines.append(
                    f"  {key:<{width}}  {sec:8.3f}s  {share:6.1%}  "
                    f"{int(count):>8d} events")
        if self.subsystem_stats:
            lines.append(f"  -- subsystems (top {top} by wall time) --")
            width = max(len(k) for k in self.subsystem_stats)
            ranked = sorted(self.subsystem_stats.items(),
                            key=lambda item: item[1][0], reverse=True)
            for key, (sec, count) in ranked[:top]:
                share = sec / wall if wall > 0 else 0.0
                lines.append(
                    f"  {key:<{width}}  {sec:8.3f}s  {share:6.1%}  "
                    f"{int(count):>8d} events")
        if self.sections:
            lines.append(f"  -- sections (top {top} by self time) --")
            width = max(len(k) for k in self.sections)
            ranked = sorted(self.sections.items(),
                            key=lambda item: item[1][1], reverse=True)
            for name, (total, self_sec, entries) in ranked[:top]:
                lines.append(
                    f"  {name:<{width}}  self {self_sec:8.3f}s  "
                    f"total {total:8.3f}s  {int(entries):>6d}x")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def profile_simulation(app_name: str, *, qps: float, duration: float,
                       machines: int, seed: int = 1,
                       sample_rate: Optional[float] = None,
                       sample_seed: int = 0):
    """Run one profiled scenario; returns ``(result, recorder)``.

    The shared driver behind ``repro profile`` and the profile-smoke CI
    job: builds the app, installs a :class:`FlightRecorder` around the
    whole experiment (so generator, fabric, scraper, and collector costs
    all land in the event view), and times collection plus the standard
    exporters as sections.
    """
    from ..apps.registry import build_app
    from ..core.experiment import simulate
    from ..core.provisioning import balanced_provision
    from ..tracing.sampling import TraceSampler
    from .exporters import to_prometheus_text, traces_to_otlp_json
    from .registry import MetricsRegistry

    recorder = FlightRecorder()
    app = build_app(app_name)
    replicas = balanced_provision(app, target_qps=max(qps * 1.5, 50))
    sampler = None
    if sample_rate is not None and sample_rate < 1.0:
        sampler = TraceSampler(sample_rate, seed=sample_seed)
    metrics = MetricsRegistry()

    def setup(deployment):
        recorder.install(deployment.env)

    result = simulate(app, qps=qps, duration=duration,
                      n_machines=machines, replicas=replicas, seed=seed,
                      metrics=metrics, sampler=sampler, setup=setup)
    recorder.uninstall()
    with recorder.scope("export.otlp"):
        traces_to_otlp_json(result.collector.traces)
    with recorder.scope("export.prometheus"):
        to_prometheus_text(metrics, now=duration)
    return result, recorder
