"""Processor-sharing CPU model.

Operating systems time-slice runnable threads, so a loaded CPU looks much
more like processor sharing (PS) than FIFO: every in-flight request slows
down together instead of queueing strictly behind one another.  The
DeathStarBench paper's backpressure and saturation behaviour (Figs. 17,
19, 20) depends on this property — utilization climbs smoothly and
latency inflates for *all* requests as a tier saturates.

:class:`ProcessorSharingServer` models ``cores`` cores running at ``rate``
(work units per second per core).  With ``n`` active jobs, each job
progresses at ``rate * min(1, cores / n)``.

Implementation: the *virtual time* formulation.  Because the share is
equal across jobs, define V(t) with dV/dt = per-job progress rate; a job
arriving at virtual time ``V_a`` with ``w`` units of work completes
exactly when ``V == V_a + w``.  Jobs therefore complete in virtual-
finish order, kept in a heap — every arrival, departure, or rate change
is O(log n), with no per-job bookkeeping on the hot path.  This is what
keeps deep-overload experiments (thousands of resident jobs) affordable.

Completions fire in place.  When the completion callback runs, it pops
every due job and reschedules the server first, then triggers each
job's event as the engine's ``_fire_in_place`` would (its body is
inlined): the waiters resume inside the callback rather than after
another heap round-trip, and a waiter that submits new work to this
same server finds it consistent.  The head job is popped first; a list
of due jobs is built only if the next one is due as well, which is
rare, since a server seldom holds more than one job.  A server the
completion empties is left unarmed: the entry that fired was its
latest arm, so there is nothing to reschedule or disarm.

Every arrival, departure and rate change re-arms one completion timer
(see the engine's module notes).  The first arm goes through
``env.schedule_callback(delay, self._complete)``; later arms push a
fresh heap entry for the same timer and disarm the superseded one, so
no stale wake-up ever reaches ``_complete``.  Each arm consumes one
engine seq, as a fresh timer would.  ``service`` and ``_complete``
advance virtual time inline, branching on ``n <= cores`` with the float
expressions of ``rate * min(1, cores/n)``.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .engine import _DISARMED, Environment, Event, SimulationError, _new

__all__ = ["ProcessorSharingServer"]

_EPS = 1e-12


class ProcessorSharingServer:
    """A multi-core processor-sharing service station.

    ``service(work)`` returns an event that triggers once ``work`` units
    have been completed under the equal-share discipline.  ``set_rate``
    supports dynamic frequency scaling mid-flight (the RAPL experiments),
    and ``set_cores`` supports autoscaling a tier up or down.
    """

    def __init__(self, env: Environment, cores: int = 1, rate: float = 1.0):
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if rate <= 0:
            raise SimulationError(f"rate must be > 0, got {rate}")
        self.env = env
        self.cores = cores
        self.rate = rate
        #: Heap of (virtual_finish, seq, Event, arrival_wall_time).
        self._heap: List[Tuple[float, int, Event, float]] = []
        self._seq = 0
        self._virtual = 0.0
        self._last_update = env.now
        #: The completion timer, made by the first arm and then re-armed;
        #: ``_callbacks`` is its callback list, restored on each re-arm.
        self._timer: Optional[Event] = None
        self._callbacks: list = []
        #: The heap entry of the latest arm (a placeholder that is never
        #: queued before the first); disarmed when superseded.
        self._entry: list = [0.0, -1, _DISARMED]
        # Busy-time integration for utilization sampling.
        self._busy_integral = 0.0
        self._integral_start = env.now

    # -- public API -----------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._heap)

    def service(self, work: float) -> Event:
        """Submit ``work`` units; returns the completion event."""
        if not work >= 0:
            raise SimulationError(f"work must be >= 0, got {work}")
        env = self.env
        now = env.now
        heap = self._heap
        n = len(heap)
        elapsed = now - self._last_update
        if elapsed > 0 and n:  # _advance, inlined
            if n <= self.cores:
                self._virtual += elapsed * self.rate
                self._busy_integral += elapsed * n
            else:
                self._virtual += elapsed * (self.rate * (self.cores / n))
                self._busy_integral += elapsed * self.cores
        self._last_update = now
        ev = _new(Event)  # Event(env), in this frame
        ev.env = env
        ev.callbacks = []
        ev._value = None
        ev._ok = True
        ev._triggered = False
        ev._processed = False
        if work == 0:
            ev.succeed(0.0)
            return ev
        virtual = self._virtual
        heapq.heappush(heap, (virtual + work, self._seq, ev, now))
        self._seq += 1
        n += 1  # _reschedule, inlined
        rate = self.rate if n <= self.cores \
            else self.rate * (self.cores / n)
        delay = (heap[0][0] - virtual) / rate
        if not delay > 0.0:
            delay = 0.0
        self._entry[2] = _DISARMED
        timer = self._timer
        if timer is None:
            self._first_arm(delay)
        else:
            timer.callbacks = self._callbacks
            seq = env._seq
            env._seq = seq + 1
            self._entry = entry = [now + delay, seq, timer]
            heapq.heappush(env._heap, entry)
        return ev

    def set_rate(self, rate: float) -> None:
        """Change per-core speed (e.g. DVFS) effective immediately."""
        if rate <= 0:
            raise SimulationError(f"rate must be > 0, got {rate}")
        self._advance()
        self.rate = rate
        self._reschedule()

    def set_cores(self, cores: int) -> None:
        """Change core count (autoscaling) effective immediately."""
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self._advance()
        self.cores = cores
        self._reschedule()

    def utilization_since(self, start: Optional[float] = None) -> float:
        """Mean utilization since ``start`` (default: creation)."""
        self._advance()
        begin = self._integral_start if start is None else start
        elapsed = self.env.now - begin
        if elapsed <= 0:
            return self.instantaneous_utilization()
        return min(1.0, self._busy_integral / (elapsed * self.cores))

    def instantaneous_utilization(self) -> float:
        """Fraction of cores busy right now."""
        return min(1.0, len(self._heap) / self.cores)

    def busy_time(self) -> float:
        """Cumulative busy-core seconds since creation (never reset).

        Monitors compute windowed utilization from deltas of this value,
        so multiple independent observers (experiment monitor and
        autoscaler) cannot clobber each other's windows."""
        self._advance()
        return self._busy_integral

    # -- internals -------------------------------------------------------
    def _advance(self) -> None:
        """Move virtual time (and the busy integral) up to wall-now."""
        now = self.env.now
        n = len(self._heap)
        elapsed = now - self._last_update
        if elapsed > 0 and n:
            if n <= self.cores:
                self._virtual += elapsed * self.rate
                self._busy_integral += elapsed * n
            else:
                self._virtual += elapsed * (self.rate * (self.cores / n))
                self._busy_integral += elapsed * self.cores
        self._last_update = now

    def _reschedule(self) -> None:
        """Arm the timer for the head job's completion, disarming the
        entry of the previous arm (a no-op if it already fired)."""
        self._entry[2] = _DISARMED
        heap = self._heap
        n = len(heap)
        if not n:
            return
        rate = self.rate if n <= self.cores \
            else self.rate * (self.cores / n)
        delay = (heap[0][0] - self._virtual) / rate
        if not delay > 0.0:
            delay = 0.0
        timer = self._timer
        if timer is None:
            self._first_arm(delay)
            return
        timer.callbacks = self._callbacks
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        self._entry = entry = [env.now + delay, seq, timer]
        heapq.heappush(env._heap, entry)

    def _first_arm(self, delay: float) -> None:
        """Make the timer through ``schedule_callback``, whose callback
        list every later arm reuses (a wrapper installed around that
        method therefore sees every completion)."""
        env = self.env
        self._timer = timer = env.schedule_callback(delay, self._complete)
        self._callbacks = timer.callbacks
        self._entry = env._entry

    def _complete(self, timer: Event) -> None:
        now = self.env.now
        heap = self._heap
        n = len(heap)  # _advance, inlined: the head job is resident
        elapsed = now - self._last_update
        if elapsed > 0:
            if n <= self.cores:
                self._virtual += elapsed * self.rate
                self._busy_integral += elapsed * n
            else:
                self._virtual += elapsed * (self.rate * (self.cores / n))
                self._busy_integral += elapsed * self.cores
        self._last_update = now
        limit = self._virtual + _EPS
        entry = heapq.heappop(heap)
        if entry[0] > limit:
            # Numerical slack: nudge virtual time to the head job.
            self._virtual = entry[0]
            due = (entry,)
        elif heap and heap[0][0] <= limit:
            due = [entry]
            while heap and heap[0][0] <= limit:
                due.append(heapq.heappop(heap))
        else:
            due = (entry,)
        # Settle the server before any waiter runs: a resumed process
        # may submit to this very server from inside the loop below.
        # An emptied server stays unarmed: the entry that fired is the
        # latest arm and has already left the engine's heap.
        if heap:
            self._reschedule()
        for _, _, ev, arrived in due:
            # _fire_in_place(ev, now - arrived), inlined
            if ev._triggered:
                raise SimulationError(f"{ev!r} already triggered")
            ev._triggered = True
            ev._processed = True
            ev._value = now - arrived
            callbacks, ev.callbacks = ev.callbacks, None
            for callback in callbacks:
                callback(ev)
