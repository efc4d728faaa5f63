"""Unit tests for the DES engine: events, processes, composition."""

import pytest

from repro.obs.profile import FlightRecorder
from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    SimulationError,
)
from repro.sim.engine import _DISARMED
from repro.sim.ps import ProcessorSharingServer


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5, 4.0]


def test_run_until_stops_and_sets_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=10.25)
    assert env.now == 10.25


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


@pytest.mark.parametrize("submit", ["timeout", "schedule_callback",
                                    "ps_service"])
def test_nan_delay_or_work_rejected(submit):
    """A NaN would pass a ``< 0`` check and then run the clock
    backwards (or complete a PS job at once)."""
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(SimulationError):
        if submit == "timeout":
            env.timeout(float("nan"))
        elif submit == "schedule_callback":
            env.schedule_callback(float("nan"), lambda ev: None)
        else:
            ProcessorSharingServer(env).service(float("nan"))
    assert env.events_scheduled == 0
    assert env.now == 1.0


def test_events_fire_in_time_then_fifo_order():
    env = Environment()
    order = []

    def make(tag, delay):
        def proc():
            yield env.timeout(delay)
            order.append(tag)
        return proc

    env.process(make("b", 2.0)())
    env.process(make("a", 1.0)())
    env.process(make("a2", 1.0)())
    env.run()
    assert order == ["a", "a2", "b"]


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        results.append(value)

    env.process(parent())
    env.run()
    assert results == [42]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        value = yield ev
        got.append((env.now, value))

    def trigger():
        yield env.timeout(3.0)
        ev.succeed("hello")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(3.0, "hello")]


def test_event_double_succeed_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_all_of_waits_for_slowest():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([env.timeout(1.0), env.timeout(5.0), env.timeout(3.0)])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_any_of_returns_on_fastest():
    env = Environment()
    done = []

    def proc():
        yield env.any_of([env.timeout(4.0), env.timeout(1.0)])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [1.0]


def test_any_of_failure_propagates():
    env = Environment()
    caught = []

    def failing():
        yield env.timeout(1.0)
        raise KeyError("dead")

    def proc():
        try:
            yield env.any_of([env.process(failing()), env.timeout(9.0)])
        except KeyError:
            caught.append(env.now)

    env.process(proc())
    env.run()
    assert caught == [1.0]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(proc):
        yield env.timeout(2.0)
        proc.interrupt(cause="preempted")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [(2.0, "preempted")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yield_non_event_raises_inside_process():
    env = Environment()
    caught = []

    def bad():
        try:
            yield 42  # type: ignore[misc]
        except SimulationError:
            caught.append(True)

    env.process(bad())
    env.run()
    assert caught == [True]


def test_waiting_on_already_processed_event():
    env = Environment()
    t = env.timeout(1.0)
    seen = []

    def late_waiter():
        yield env.timeout(5.0)
        yield t  # already fired at t=1
        seen.append(env.now)

    env.process(late_waiter())
    env.run()
    assert seen == [5.0]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


class RescanAllOf(AllOf):
    """The join as it was before ``_ready``: every notification rescans
    all constituents.  ``AllOf`` must fire at the same instant, in the
    same heap order."""

    __slots__ = ()

    def _check_immediate(self):
        if not self._triggered and all(ev._triggered for ev in self.events):
            if all(ev._ok for ev in self.events):
                self.succeed(self._collect())

    def _notify(self, event):
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        if all(ev._triggered and ev._ok for ev in self.events):
            self.succeed(self._collect())


def wide_join(join_cls, failing):
    """A 64-wide join: constituent 0 is processed before the join
    exists, 1-59 are timeouts on a tie-heavy grid, 60-62 are triggered
    together by one callback at t=2 (so the join is notified while some
    are triggered but still queued), and 63 is a process that returns,
    or raises when ``failing``.  A waiter on constituent 60 schedules a
    zero-delay event, which lands before or after the join's own event
    depending on the instant the join fires.  Returns the log of every
    callback, the join's outcome and the event count."""
    env = Environment()
    log = []
    early = env.event().succeed("early")
    env.run()
    events = [early]
    events += [env.timeout((i % 4) * 0.5, value=i) for i in range(1, 60)]
    manual = [env.event() for _ in range(3)]
    events += manual

    def trigger(_):
        for i, ev in enumerate(manual):
            ev.succeed(60 + i)
    env.schedule_callback(2.0, trigger)

    def last():
        yield env.timeout(1.0)
        if failing:
            raise KeyError("constituent 63")
        return 63
    events.append(env.process(last()))

    join = join_cls(env, events)
    for i, ev in enumerate(events[1:], start=1):
        ev.callbacks.append(lambda ev, i=i: log.append((i, env.now)))

    def after_first_manual():
        yield manual[0]
        yield env.timeout(0.0)
        log.append(("after-60", env.now))
    env.process(after_first_manual())

    def outcome(ev):
        log.append(("join", env.now, ev._ok))
    join.callbacks.append(outcome)
    env.run()
    value = join._value if join._ok else repr(join._value)
    return log, value, env.events_scheduled


@pytest.mark.parametrize("failing", [False, True])
def test_all_of_64_wide_join_fires_as_the_rescanning_join_did(failing):
    log, value, events = wide_join(AllOf, failing)
    assert (log, value, events) == wide_join(RescanAllOf, failing)
    fired = next(entry for entry in log if entry[0] == "join")
    if failing:
        assert fired == ("join", 1.0, False)
        assert value == repr(KeyError("constituent 63"))
    else:
        # Fired at the first of 60-62's notifications: every
        # constituent was triggered by then, so the join's event is
        # queued before the zero-delay event of 60's waiter.
        assert fired == ("join", 2.0, True)
        assert log.index(fired) < log.index(("after-60", 2.0))
        assert value == {i: ("early" if i == 0 else i) for i in range(64)}


def test_all_of_with_every_constituent_processed_fires_at_once():
    env = Environment()
    events = [env.timeout(0.5 * i, value=i) for i in range(4)]
    env.run()
    join = env.all_of(events)
    assert join.triggered
    env.run()
    assert join.value == {i: i for i in range(4)}


def disarmed_and_stale(drive):
    """Run ``drive(env)`` on two environments holding a timer at 1.5
    and an event at 3.0: in one the timer's entry is disarmed, in the
    other it stays armed with a callback that ignores the wake-up, as a
    superseded PS timer's did.  Returns both (observations, callback
    calls, events scheduled)."""
    results = []
    for disarm in (True, False):
        env = Environment()
        calls = []
        timer = env.schedule_callback(1.5, calls.append)
        assert env._entry[2] is timer
        if disarm:
            env._entry[2] = _DISARMED
        else:
            timer.callbacks = [lambda ev: None]
        env.timeout(3.0)
        results.append((drive(env), calls, env.events_scheduled))
    return results


def test_disarmed_entry_pops_like_a_stale_timer_under_run():
    def drive(env):
        seen = []
        env.run(until=1.0)
        seen.append((env.now, env.peek()))
        env.run(until=2.0)
        seen.append((env.now, env.peek()))
        env.run()
        seen.append((env.now, env.peek()))
        return seen

    disarmed, stale = disarmed_and_stale(drive)
    assert disarmed == stale
    assert disarmed == ([(1.0, 1.5), (2.0, 3.0), (3.0, float("inf"))],
                        [], 2)


def test_disarmed_entry_pops_like_a_stale_timer_under_step():
    def drive(env):
        seen = []
        while env.peek() != float("inf"):
            env.step()
            seen.append(env.now)
        return seen

    disarmed, stale = disarmed_and_stale(drive)
    assert disarmed == stale == ([1.5, 3.0], [], 2)


def test_disarmed_entry_reaches_the_step_hook_and_runs_nothing():
    def drive(env):
        hooked = []
        env.step_hook = lambda ev: hooked.append((env.now, ev.callbacks))
        env.run(until=2.0)
        env.run()
        return [now for now, _ in hooked], hooked[0][1] == ()

    disarmed, stale = disarmed_and_stale(drive)
    assert disarmed[0] == ([1.5, 3.0], True)
    assert stale[0] == ([1.5, 3.0], False)
    assert disarmed[1:] == stale[1:] == ([], 2)
    # The run loop's stores to the shared sentinel were dropped.
    assert _DISARMED.callbacks == ()
    assert not hasattr(_DISARMED, "_triggered")
    assert not hasattr(_DISARMED, "_processed")


def test_flight_recorder_counts_a_disarmed_entry_as_unwatched():
    env = Environment()
    env.schedule_callback(1.5, lambda ev: None)
    env._entry[2] = _DISARMED
    recorder = FlightRecorder()
    recorder.install(env)
    env.run()
    recorder.uninstall()
    assert env.now == 1.5  # simlint: disable=SIM005
    assert recorder.events_observed == 1
    assert recorder.subsystem_stats["(unwatched)"][1] == 1
