"""Discrete-event simulation engine.

A small, fast, generator-based DES core in the style of SimPy, written
from scratch for this project.  Simulation *processes* are Python
generators that ``yield`` :class:`Event` objects; the environment resumes
a process when the event it waits on is triggered.

Design notes
------------
* Events carry an ``ok`` flag; failed events raise their exception inside
  the waiting process, so simulation code can use ordinary ``try/except``.
* Heap entries are plain ``[time, seq, event]`` lists so ordering is
  resolved by C-level tuple comparison; the unique, monotonically
  increasing ``seq`` both breaks time ties deterministically and counts
  every event ever scheduled (:attr:`Environment.events_scheduled`).
* A timer can be re-armed instead of re-created.  Its owner gets it
  from :meth:`Environment.schedule_callback` once, keeps it, and later
  pushes fresh ``[time, seq, timer]`` entries for it; a superseded
  entry is *disarmed* by pointing it at the ``_DISARMED`` sentinel,
  which still pops and sets ``env.now`` but runs nothing.  Seq
  consumption and :attr:`Environment.events_scheduled` are exactly
  those of a fresh timer per arm with stale wake-ups ignored, and the
  hot loop stays branch-free.  The processor-sharing server in
  :mod:`repro.sim.ps` arms its completion timer this way.
* The scheduling fast path is deliberately inlined: ``succeed``/``fail``,
  ``Timeout.__init__`` and ``schedule_callback`` push onto the heap
  directly instead of going through a helper, because at ~400k events
  per simulated run every attribute lookup and frame push shows up in
  the flight-recorder profile (``repro profile``).
* An event triggered by code that is already running at ``env.now``
  inside an event callback can skip the heap entirely:
  ``_fire_in_place`` marks it processed and runs its callbacks at once.
  The processor-sharing server completes jobs this way, which halves
  the heap traffic of CPU work; such events are not counted in
  :attr:`Environment.events_scheduled`.
* Time is a ``float`` in **seconds**.  All latency outputs across the
  library are seconds unless a function says otherwise.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


#: Allocates a slotted event without running its ``__init__``; the hot
#: constructors then store every slot in their own frame.
_new = object.__new__


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupting party supplies a ``cause`` which the interrupted
    process can inspect, e.g. to distinguish preemption from cancellation.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* when given a value (or
    an exception), and is *processed* once its callbacks have run.
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now, seq, self])
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now, seq, self])
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"timeout delay must be >= 0, got {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = False
        self._processed = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now + delay, seq, self])


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the
    generator's uncaught exception.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume once at the current time, through a boot
        # event built and triggered in this frame.
        boot = _new(Event)
        boot.env = env
        boot.callbacks = [self._resume]
        boot._value = None
        boot._ok = True
        boot._triggered = True
        boot._processed = False
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, [env.now, seq, boot])

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event first.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        kick = Event(self.env)
        kick.callbacks.append(lambda ev: self._step_throw(Interrupt(cause)))
        kick.succeed()

    # -- internals -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if not event._ok:
            self._step_throw(event._value)
            return
        # Success path in one frame: send, then wait on the next event.
        try:
            target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._terminate(exc)
            return
        if isinstance(target, Event) and not target._processed:
            target.callbacks.append(self._resume)
            self._waiting_on = target
        else:
            self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self._terminate(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._step_throw(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target._processed:
            # Already done: resume immediately (next scheduler step).
            kick = Event(self.env)
            kick.callbacks.append(lambda ev: self._resume(target))
            kick.succeed()
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def _terminate(self, exc: BaseException) -> None:
        if not self.callbacks:
            # Nobody is waiting on this process: surface the crash.
            self.env._crash = exc
        self.fail(exc)


class _MultiEvent(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev._processed:
                self._notify(ev)
            else:
                ev.callbacks.append(self._notify)
        self._check_immediate()

    def _check_immediate(self) -> None:
        raise NotImplementedError

    def _notify(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {i: ev._value for i, ev in enumerate(self.events) if ev._triggered}


class AllOf(_MultiEvent):
    """Triggers when all constituent events have triggered.

    Its value is ``{index: value}`` for every constituent.  Fails as soon
    as any constituent fails.

    It succeeds at the first notification that finds every constituent
    triggered and ok, which may come before the last constituent is
    processed (one triggered at this instant is still queued).  Being
    triggered and ok is permanent, so ``_ready`` counts the constituents
    known to be so, as a prefix of ``events``, and each check resumes
    where the last stopped: O(k) per join instead of a rescan per
    completion.
    """

    __slots__ = ("_ready",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self._ready = 0
        super().__init__(env, events)

    def _check_immediate(self) -> None:
        if not self._triggered:
            self._check_ready()

    def _notify(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._check_ready()

    def _check_ready(self) -> None:
        events = self.events
        ready, total = self._ready, len(events)
        while ready < total:
            ev = events[ready]
            if not (ev._triggered and ev._ok):
                break
            ready += 1
        self._ready = ready
        if ready == total:
            self.succeed(self._collect())


class AnyOf(_MultiEvent):
    """Triggers as soon as any constituent event triggers."""

    __slots__ = ()

    def _check_immediate(self) -> None:
        for ev in self.events:
            if ev._triggered:
                if ev._ok:
                    if not self._triggered:
                        self.succeed(self._collect())
                else:
                    if not self._triggered:
                        self.fail(ev._value)
                return

    def _notify(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(self._collect())
        else:
            self.fail(event._value)


def _fire_in_place(event: Event, value: Any) -> None:
    """Trigger ``event`` with ``value`` and run its callbacks at once.

    The same outcome as ``event.succeed(value)`` followed by the run
    loop processing it, minus the heap round-trip: the caller is itself
    an event callback running at ``env.now``, so the event is marked
    processed and its waiters resume inside the caller's step.  Only
    same-instant tie order changes (these waiters run before events
    already queued for this instant).  Engine-internal; callers must
    leave their own state consistent first, because a callback may
    re-enter them.
    """
    if event._triggered:
        raise SimulationError(f"{event!r} already triggered")
    event._triggered = True
    event._processed = True
    event._value = value
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)


class _Disarmed:
    """What a disarmed heap entry points at.

    The run loop treats it as an event: it pops at its entry's time and
    sets ``env.now``, then iterates the class-level empty ``callbacks``.
    The loop's stores (``callbacks``, ``_triggered``, ``_processed``)
    are dropped, so the one shared instance stays inert.
    """

    __slots__ = ()
    callbacks = ()

    def __setattr__(self, name: str, value: Any) -> None:
        pass


#: The shared sentinel a superseded timer entry is pointed at.
_DISARMED = _Disarmed()


class Environment:
    """The simulation environment: clock plus event scheduler.

    ``step_hook`` is the flight-recorder attachment point (see
    :mod:`repro.obs.profile`): when set to a callable it receives
    ``(event)`` *before* each event's callbacks run, and ``run()``
    switches to an instrumented loop.  When it is ``None`` — the normal
    case — the hot loop carries no profiling branches at all.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now: float = initial_time
        # Entries are [time, seq, event]; seq is unique so comparisons
        # never reach the (uncomparable) event object.
        self._heap: List[list] = []
        self._seq = 0
        self._crash: Optional[BaseException] = None
        self.step_hook: Optional[Callable[[Event], None]] = None
        #: The heap entry ``schedule_callback`` pushed last.
        self._entry: Optional[list] = None

    @property
    def events_scheduled(self) -> int:
        """Total events scheduled over this environment's lifetime.

        The sequence counter doubles as the event count the
        perf-trajectory harness (``benchmarks/bench_perf_engine.py``)
        reports as a diagnostic next to requests per wall second.
        Events fired in place (``_fire_in_place``) never enter the
        heap and are not counted; every arm of a re-armed timer is,
        disarmed or not.
        """
        return self._seq

    # -- factory helpers -------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event triggering ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when every event in ``events`` has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when the first event in ``events`` triggers."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def schedule_callback(self, delay: float,
                          callback: Callable[[Event], None]) -> Timeout:
        """Schedule ``callback(event)`` to run ``delay`` seconds from now.

        The heap entry is left in ``_entry`` so that the owner of a
        re-armable timer can disarm it later (see the module notes).
        The timer is built in this frame, as ``Timeout(self, delay)``
        with ``callback`` appended would build it.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"timeout delay must be >= 0, got {delay!r}")
        ev = _new(Timeout)
        ev.env = self
        ev.callbacks = [callback]
        ev._value = None
        ev._ok = True
        ev._triggered = False
        ev._processed = False
        ev.delay = delay
        seq = self._seq
        self._seq = seq + 1
        self._entry = entry = [self.now + delay, seq, ev]
        heapq.heappush(self._heap, entry)
        return ev

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        time, _seq, event = heapq.heappop(self._heap)
        self.now = time
        hook = self.step_hook
        if hook is not None:
            hook(event)
        callbacks, event.callbacks = event.callbacks, None
        event._triggered = True
        event._processed = True
        for callback in callbacks:
            callback(event)
        if self._crash is not None:
            crash, self._crash = self._crash, None
            raise crash

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue empties or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        if self.step_hook is not None:
            # Instrumented loop: identical semantics, routed through
            # step() so the hook sees every event.
            while self._heap:
                if until is not None and self._heap[0][0] > until:
                    break
                self.step()
            if until is not None:
                self.now = max(self.now, until)
            return
        # Fast loop: step() inlined.  At ~80k events per wall second the
        # call overhead alone is measurable, and this loop is the single
        # hottest stretch of python in the repository.
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                break
            time, _seq, event = pop(heap)
            self.now = time
            callbacks, event.callbacks = event.callbacks, None
            event._triggered = True
            event._processed = True
            for callback in callbacks:
                callback(event)
            if self._crash is not None:
                crash, self._crash = self._crash, None
                raise crash
        if until is not None:
            self.now = max(self.now, until)
