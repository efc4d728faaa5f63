"""Outside-in per-layer tracing of one simulation run.

The simulator carries no spans of its own, so this module wraps each
layer's entry points *from the benchmark's side*, in the benchmark's
process only, and restores them afterwards; no source file changes.

Accounting is exclusive: a stack holds the layer currently running, and
at every entry and exit the CPU time since the previous transition is
charged to the layer on top.  A layer's self time is therefore its
spans minus the spans nested inside them.  Generators are timed on
each resumption, so code reached through ``yield from`` (the fabric
under ``Deployment._run_node``) is charged to its own layer, not to the
process that drives it.

Processes and scheduled callbacks are charged to the layer of the
module their code comes from: the workload generator's arrival loop to
``workload``, PS completion callbacks to ``ps``, the metrics scraper to
``obs``.  Code reached from no wrapped entry point (the run loop,
``Process`` stepping, composite-event callbacks) stays with
``engine``, whose span is ``Environment.run``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Span clock: CPU time of this process, in nanoseconds.
_clock = time.process_time_ns

#: Stored traces whose deep size is averaged for ``kb_per_stored_trace``.
SIZE_SAMPLE = 200

LAYERS = ("engine", "ps", "resources", "fabric", "deployment",
          "resilience", "collector", "obs", "workload")

#: Module prefix -> layer, first match wins.  ``cluster`` code is only
#: reached from the deployment, so it is charged there.
_MODULE_LAYERS = (
    ("repro.sim.engine", "engine"),
    ("repro.sim.ps", "ps"),
    ("repro.sim.resources", "resources"),
    ("repro.net.", "fabric"),
    ("repro.core.", "deployment"),
    ("repro.cluster.", "deployment"),
    ("repro.resilience.", "resilience"),
    ("repro.tracing.", "collector"),
    ("repro.obs.", "obs"),
    ("repro.workload.", "workload"),
)


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix):
                return layer
    return None


def _generator_module(gen) -> Optional[str]:
    frame = getattr(gen, "gi_frame", None)
    return None if frame is None else frame.f_globals.get("__name__")


def deep_size(obj, _seen=None) -> int:
    """Bytes held by ``obj`` and everything it references, counting
    each object once.  Strings are skipped: span service and operation
    names are shared with the app definition."""
    seen = set() if _seen is None else _seen
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, str):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return total


class LayerTracer:
    """Wraps the simulator's layer entry points and accumulates exact
    counts plus self CPU time per layer.

    Use :meth:`install` before the deployment is built (so processes
    started during set-up are wrapped too), :meth:`reset` just before
    ``env.run``, and :meth:`uninstall` afterwards."""

    def __init__(self):
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self._stack: List[str] = []
        self._last = [0]
        self._patches: list = []

    # -- span accounting ------------------------------------------------
    def enter(self, layer: str) -> None:
        """Start a span of ``layer`` nested in the current one."""
        now = _clock()
        stack = self._stack
        if stack:
            self.self_ns[stack[-1]] += now - self._last[0]
        stack.append(layer)
        self._last[0] = now

    def leave(self) -> None:
        """End the innermost span."""
        now = _clock()
        self.self_ns[self._stack.pop()] += now - self._last[0]
        self._last[0] = now

    def current(self) -> Optional[str]:
        """The layer whose code is running, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Zero counts and times (call with no span open)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        for layer in self.self_ns:
            self.self_ns[layer] = 0
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------
    def function(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer`` per call."""
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    def generator(self, layer: str, gen):
        """Drive ``gen`` transparently, timing each resumption as a span
        of ``layer``.  Values, ``throw`` and ``close`` are forwarded and
        the return value is passed through."""
        enter, leave = self.enter, self.leave
        value = None
        error = None
        while True:
            enter(layer)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target, error = gen.throw(error), None
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value = yield target
            except GeneratorExit:
                enter(layer)
                try:
                    gen.close()
                finally:
                    leave()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                value, error = None, exc

    def generator_function(self, layer: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with every generator it returns
        timed by :meth:`generator`."""
        wrap = self.generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return wrap(layer, fn(*args, **kwargs))
        return traced

    def _patch(self, owner, name: str, replacement: Callable) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points."""
        from repro.core.deployment import Deployment
        from repro.net.fabric import NetworkFabric
        from repro.obs import registry as obs_registry
        from repro.resilience import (CircuitBreaker, LoadShedder,
                                      ResiliencePolicy, RetryBudget)
        from repro.sim.engine import Environment
        from repro.sim.ps import ProcessorSharingServer
        from repro.sim.resources import Request, Resource
        from repro.tracing.collector import TraceCollector

        counts = self.counts
        current = self.current
        wrap_gen = self.generator

        run = Environment.run
        self._patch(Environment, "run", self.function("engine", run))

        process = Environment.process

        def traced_process(env, generator, name=""):
            counts["engine.processes"] += 1
            if current() == "resilience":
                # The only process a retry policy starts is an attempt.
                counts["resilience.attempts"] += 1
            name = name or getattr(generator, "__name__", "process")
            layer = layer_of_module(_generator_module(generator))
            if layer is not None:
                generator = wrap_gen(layer, generator)
            return process(env, generator, name=name)
        self._patch(Environment, "process", traced_process)

        schedule = Environment.schedule_callback
        function = self.function

        def traced_schedule(env, delay, callback):
            layer = layer_of_module(getattr(callback, "__module__", None))
            if layer is not None:
                timed = function(layer, callback)
                key = f"{layer}.wakeups"

                def counted(event):
                    counts[key] += 1
                    timed(event)
                callback = counted
            return schedule(env, delay, callback)
        self._patch(Environment, "schedule_callback", traced_schedule)

        service = self.function("ps", ProcessorSharingServer.service)

        def traced_service(server, work):
            counts["ps.jobs"] += 1
            counts["ps.residents"] += server.active_jobs
            return service(server, work)
        self._patch(ProcessorSharingServer, "service", traced_service)

        request = self.function("resources", Resource.request)

        def traced_request(resource):
            counts["resources.requests"] += 1
            return request(resource)
        self._patch(Resource, "request", traced_request)
        self._patch(Request, "release",
                    self.function("resources", Request.release))

        transfer = NetworkFabric.transfer

        def traced_transfer(fabric, src, dst, *args, **kwargs):
            counts["fabric.transfers"] += 1
            if src is None or dst is None or src.machine is not dst.machine:
                counts["fabric.cross_machine"] += 1
            return wrap_gen("fabric", transfer(fabric, src, dst, *args,
                                               **kwargs))
        self._patch(NetworkFabric, "transfer", traced_transfer)
        self._patch(NetworkFabric, "wire_delay", self.generator_function(
            "fabric", NetworkFabric.wire_delay))

        self._patch(Deployment, "execute",
                    self.function("deployment", Deployment.execute))
        self._patch(Deployment, "_call_with_policy",
                    self.generator_function("resilience",
                                            Deployment._call_with_policy))
        for owner, names in ((CircuitBreaker, ("allow", "record")),
                             (LoadShedder, ("try_admit", "release")),
                             (RetryBudget, ("on_request", "try_retry")),
                             (ResiliencePolicy, ("backoff_delay",))):
            for name in names:
                self._patch(owner, name,
                            self.function("resilience", vars(owner)[name]))

        self._patch(TraceCollector, "collect",
                    self.function("collector", TraceCollector.collect))

        for owner, names in (
                (obs_registry.MetricsRegistry,
                 ("counter", "gauge", "histogram", "scrape")),
                (obs_registry._Family, ("labels",)),
                (obs_registry._Counter, ("inc", "set_total")),
                (obs_registry._Histogram, ("observe",))):
            for name in names:
                self._patch(owner, name,
                            self.function("obs", vars(owner)[name]))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------
    def report(self, result) -> dict:
        """Counts, self CPU seconds and stored-trace footprint of the run.

        ``kb_per_stored_trace`` is the deep size of the first
        ``SIZE_SAMPLE`` stored traces, averaged."""
        traces = list(result.collector.traces)[:SIZE_SAMPLE]
        seen: set = set()
        size = sum(deep_size(trace, seen) for trace in traces)
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "counts": dict(self.counts),
            "kb_per_stored_trace": size / 1024.0 / len(traces)
            if traces else 0.0,
        }
