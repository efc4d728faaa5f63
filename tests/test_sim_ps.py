"""Unit and property tests for the processor-sharing server."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.queueing import erlang_c
from repro.sim import (Environment, ProcessorSharingServer, RandomStreams,
                       SimulationError)
from repro.sim.engine import Event, _fire_in_place


def run_jobs(cores, rate, jobs):
    """Submit (arrival, work) jobs; return list of (completion_time)."""
    env = Environment()
    server = ProcessorSharingServer(env, cores=cores, rate=rate)
    completions = {}

    def submit(idx, arrival, work):
        yield env.timeout(arrival)
        yield server.service(work)
        completions[idx] = env.now

    for idx, (arrival, work) in enumerate(jobs):
        env.process(submit(idx, arrival, work))
    env.run()
    return [completions[i] for i in range(len(jobs))]


def test_single_job_takes_work_over_rate():
    (done,) = run_jobs(cores=1, rate=2.0, jobs=[(0.0, 4.0)])
    assert done == pytest.approx(2.0)


def test_two_equal_jobs_share_one_core():
    done = run_jobs(cores=1, rate=1.0, jobs=[(0.0, 1.0), (0.0, 1.0)])
    # Each gets half the core: both finish at t=2.
    assert done == pytest.approx([2.0, 2.0])


def test_two_jobs_two_cores_no_interference():
    done = run_jobs(cores=2, rate=1.0, jobs=[(0.0, 1.0), (0.0, 1.0)])
    assert done == pytest.approx([1.0, 1.0])


def test_late_arrival_slows_first_job():
    # Job A (work 2) alone for 1s -> 1 unit left; B arrives (work 0.5).
    # Shared: B finishes after 1s shared (0.5 each); A has 0.5 left, alone.
    done = run_jobs(cores=1, rate=1.0, jobs=[(0.0, 2.0), (1.0, 0.5)])
    assert done[1] == pytest.approx(2.0)
    assert done[0] == pytest.approx(2.5)


def test_zero_work_completes_immediately():
    env = Environment()
    server = ProcessorSharingServer(env, cores=1, rate=1.0)
    marks = []

    def proc():
        yield server.service(0.0)
        marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [0.0]


def test_set_rate_mid_flight():
    env = Environment()
    server = ProcessorSharingServer(env, cores=1, rate=1.0)
    done = []

    def job():
        yield server.service(2.0)
        done.append(env.now)

    def slow_down():
        yield env.timeout(1.0)
        server.set_rate(0.5)  # remaining 1.0 work now takes 2.0s

    env.process(job())
    env.process(slow_down())
    env.run()
    assert done == [pytest.approx(3.0)]


def test_set_cores_mid_flight_speeds_up_backlog():
    env = Environment()
    server = ProcessorSharingServer(env, cores=1, rate=1.0)
    done = []

    def job(tag):
        yield server.service(2.0)
        done.append((tag, env.now))

    def scale_out():
        yield env.timeout(1.0)
        server.set_cores(2)

    env.process(job("a"))
    env.process(job("b"))
    env.process(scale_out())
    env.run()
    # First second shared on 1 core: each has 1.5 work left, then each
    # gets a full core: finish at t=2.5.
    assert sorted(t for _, t in done) == pytest.approx([2.5, 2.5])


def test_utilization_integration():
    env = Environment()
    server = ProcessorSharingServer(env, cores=2, rate=1.0)

    def job():
        yield server.service(1.0)

    def check():
        yield env.timeout(4.0)

    env.process(job())
    env.process(check())
    env.run()
    # 1 busy core for 1s out of 2 cores * 4s = 0.125
    assert server.utilization_since(0.0) == pytest.approx(1.0 / 8.0)


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        ProcessorSharingServer(env, cores=0)
    with pytest.raises(SimulationError):
        ProcessorSharingServer(env, rate=0.0)
    server = ProcessorSharingServer(env)
    with pytest.raises(SimulationError):
        server.service(-1.0)
    with pytest.raises(SimulationError):
        server.set_rate(-2.0)
    with pytest.raises(SimulationError):
        server.set_cores(0)


@settings(max_examples=40, deadline=None)
@given(
    works=st.lists(st.floats(min_value=0.01, max_value=5.0),
                   min_size=1, max_size=8),
    arrivals=st.lists(st.floats(min_value=0.0, max_value=3.0),
                      min_size=8, max_size=8),
    cores=st.integers(min_value=1, max_value=4),
)
def test_property_conservation_of_work(works, arrivals, cores):
    """Total busy time equals total submitted work / rate, and every job
    finishes no earlier than arrival + work/rate (PS can only slow you)."""
    jobs = [(arrivals[i], w) for i, w in enumerate(works)]
    env = Environment()
    server = ProcessorSharingServer(env, cores=cores, rate=1.0)
    completions = {}

    def submit(idx, arrival, work):
        yield env.timeout(arrival)
        yield server.service(work)
        completions[idx] = env.now

    for idx, (arrival, work) in enumerate(jobs):
        env.process(submit(idx, arrival, work))
    env.run()

    assert len(completions) == len(jobs)
    for idx, (arrival, work) in enumerate(jobs):
        lower = arrival + work - 1e-6
        assert completions[idx] >= lower
    # Work conservation: busy-core integral == total work (rate=1).
    total_work = sum(works)
    busy = server.utilization_since(0.0) * server.cores * env.now
    assert busy == pytest.approx(total_work, rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=12))
def test_property_simultaneous_equal_jobs_finish_together(n):
    """n equal jobs on one core all finish at exactly n * work."""
    done = run_jobs(cores=1, rate=1.0, jobs=[(0.0, 1.0)] * n)
    for t in done:
        assert math.isclose(t, float(n), rel_tol=1e-9)


def test_waiter_resubmitting_during_a_completion_is_safe():
    """Jobs A and B finish together at t=2; A's waiter submits C to the
    same server while that completion is still firing B.  C then runs
    alone, so it finishes at t=3, and every job fires exactly once."""
    env = Environment()
    server = ProcessorSharingServer(env, cores=1, rate=1.0)
    fired = []

    def job(name, work, then=None):
        sojourn = yield server.service(work)
        fired.append((name, env.now, sojourn))
        if then is not None:
            yield from job(*then)

    env.process(job("A", 1.0, then=("C", 1.0)))
    env.process(job("B", 1.0))
    env.run()
    assert [name for name, _, _ in fired] == ["A", "B", "C"]
    for (_, at, sojourn), (want_at, want_sojourn) in zip(
            fired, [(2.0, 2.0), (2.0, 2.0), (3.0, 1.0)]):
        assert at == pytest.approx(want_at, rel=1e-12)
        assert sojourn == pytest.approx(want_sojourn, rel=1e-12)
    assert server.active_jobs == 0
    assert server.busy_time() == pytest.approx(3.0, rel=1e-12)


class ReferencePS:
    """The straightforward PS server the fast paths must reproduce bit
    for bit: per-job rate ``rate * min(1, cores / n)``, a clamped
    ``max(0.0, ...)`` delay, and a generation counter that invalidates
    every earlier completion closure."""

    def __init__(self, env, cores, rate):
        self.env, self.cores, self.rate = env, cores, rate
        self._heap, self._seq, self._generation = [], 0, 0
        self._virtual, self._busy = 0.0, 0.0
        self._last = env.now
        #: Timer wake-ups that completed jobs, and stale ones ignored.
        self.wakeups, self.stale = 0, 0

    def service(self, work):
        self._advance()
        ev = Event(self.env)
        if work == 0:
            return ev.succeed(0.0)
        heapq.heappush(self._heap,
                       (self._virtual + work, self._seq, ev, self.env.now))
        self._seq += 1
        self._reschedule()
        return ev

    def set_rate(self, rate):
        self._advance()
        self.rate = rate
        self._reschedule()

    def set_cores(self, cores):
        self._advance()
        self.cores = cores
        self._reschedule()

    def busy_time(self):
        self._advance()
        return self._busy

    def _per_job_rate(self):
        n = len(self._heap)
        return self.rate * min(1.0, self.cores / n) if n else 0.0

    def _advance(self):
        elapsed = self.env.now - self._last
        if elapsed > 0 and self._heap:
            self._virtual += elapsed * self._per_job_rate()
            self._busy += elapsed * min(len(self._heap), self.cores)
        self._last = self.env.now

    def _reschedule(self):
        self._generation += 1
        if not self._heap:
            return
        gen = self._generation
        delay = max(0.0, (self._heap[0][0] - self._virtual)
                    / self._per_job_rate())
        self.env.schedule_callback(delay, lambda ev: self._complete(gen))

    def _complete(self, generation):
        if generation != self._generation:
            self.stale += 1
            return
        self.wakeups += 1
        self._advance()
        due = []
        while self._heap and self._heap[0][0] <= self._virtual + 1e-12:
            due.append(heapq.heappop(self._heap))
        if not due and self._heap:
            self._virtual = self._heap[0][0]
            due.append(heapq.heappop(self._heap))
        self._reschedule()
        for _, _, ev, arrived in due:
            _fire_in_place(ev, self.env.now - arrived)


class CheckedPS(ProcessorSharingServer):
    """The server under test, asserting on every completion wake-up
    that the entry firing is its latest arm: a superseded one would
    complete jobs early, since ``_complete`` no longer checks."""

    def __init__(self, env, cores, rate):
        super().__init__(env, cores=cores, rate=rate)
        self.wakeups = 0

    def _complete(self, timer):
        entry = self._entry
        assert entry[2] is timer is self._timer
        assert entry[0] == self.env.now  # simlint: disable=SIM005
        assert all(queued is not entry for queued in self.env._heap)
        self.wakeups += 1
        super()._complete(timer)


def replay(server_cls, cores, rate, jobs, changes):
    """Drive one server through ``jobs`` [(arrival, work)] and mid-flight
    ``changes`` [(time, "rate" | "cores", value)]; returns the completion
    log in firing order, the final busy time, the event count, the final
    clock and the number of completion wake-ups."""
    env = Environment()
    server = server_cls(env, cores=cores, rate=rate)
    log = []

    def submit(idx, arrival, work):
        yield env.timeout(arrival)
        sojourn = yield server.service(work)
        log.append((idx, env.now, sojourn))

    def change(at, kind, value):
        yield env.timeout(at)
        if kind == "rate":
            server.set_rate(value)
        else:
            server.set_cores(value)

    for idx, (arrival, work) in enumerate(jobs):
        env.process(submit(idx, arrival, work))
    for at, kind, value in changes:
        env.process(change(at, kind, value))
    env.run()
    return (log, server.busy_time(), env.events_scheduled, env.now,
            server.wakeups)


# Arrival instants drawn from a short grid collide often, so
# simultaneous arrivals (and simultaneous completions) are common.
_instants = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                      st.floats(min_value=0.0, max_value=3.0))


@settings(max_examples=150, deadline=None)
@given(
    cores=st.integers(min_value=1, max_value=4),
    rate=st.floats(min_value=0.25, max_value=4.0),
    jobs=st.lists(st.tuples(_instants, st.one_of(
        st.just(0.0), st.sampled_from([0.5, 1.0]),
        st.floats(min_value=1e-3, max_value=5.0))), min_size=1,
        max_size=14),
    changes=st.lists(st.one_of(
        st.tuples(_instants, st.just("rate"),
                  st.floats(min_value=0.1, max_value=4.0)),
        st.tuples(_instants, st.just("cores"),
                  st.integers(min_value=1, max_value=4))), max_size=4),
)
def test_property_fast_paths_match_the_reference_bit_for_bit(
        cores, rate, jobs, changes):
    """Inlined arithmetic and the re-armed, disarmable timer change no
    float: every completion instant and sojourn, the firing order, the
    busy integral, the number of scheduled events and the final clock
    equal those of the reference, which schedules a fresh timer per
    reschedule (``==``, not approx).  The server's wake-ups are exactly
    the reference's non-stale ones."""
    fast = replay(CheckedPS, cores, rate, jobs, changes)
    reference = replay(ReferencePS, cores, rate, jobs, changes)
    assert fast == reference


def test_superseded_timer_never_reaches_complete():
    """Arrivals, a slow-down, a speed-up and core changes mid-flight
    each supersede the pending timer; some superseded entries are due
    before the latest arm, some after.  None reaches ``_complete``
    (``CheckedPS`` asserts it), yet the clock, the event count and
    every completion match the reference, stale wake-ups included."""
    jobs = [(0.0, 2.0), (0.0, 3.0), (0.5, 1.0), (1.0, 0.25), (2.0, 4.0),
            (2.0, 0.5)]
    changes = [(0.75, "rate", 0.5), (1.0, "cores", 2), (1.5, "rate", 3.0),
               (2.0, "cores", 1), (2.25, "rate", 1.0)]
    fast = replay(CheckedPS, 1, 1.0, jobs, changes)
    reference = replay(ReferencePS, 1, 1.0, jobs, changes)
    assert fast == reference
    runs = []
    for server_cls in (ReferencePS, CheckedPS):
        env = Environment()
        server = server_cls(env, cores=1, rate=1.0)
        server.service(2.0)
        server.service(1.0)  # supersedes the arm due at 2.0
        env.run(until=0.5)
        server.set_rate(0.5)  # supersedes the other arm due at 2.0
        server.set_rate(4.0)  # supersedes the arm due at 3.5
        env.run()
        runs.append((server.wakeups, env.events_scheduled, env.now))
        if server_cls is ReferencePS:
            assert server.stale == 3
    assert runs == [(2, 5, 3.5)] * 2


@pytest.mark.parametrize("cv", [0.5, 2.0])
def test_mg1_ps_mean_sojourn_is_insensitive_to_service_cv(cv):
    """M/G/1-PS oracle: the mean sojourn is E[S] / (1 - rho) whatever
    the service distribution (insensitivity).  One core at rho = 0.6,
    Poisson arrivals, lognormal work with mean 1 at CV 0.5 and 2.0,
    fixed seed.  The 5% tolerance is about 2.5 standard deviations of
    the estimate across seeds at this length for CV 2.0; FIFO service
    (Pollaczek-Khinchine) would miss by 22% at CV 0.5 and 90% at 2.0."""
    rho, jobs, warmup = 0.6, 100_000, 5_000
    rng = RandomStreams(seed=5)
    env = Environment()
    server = ProcessorSharingServer(env, cores=1, rate=1.0)
    sojourns = []

    def arrivals():
        for _ in range(jobs):
            yield env.timeout(rng.exponential("arrivals", 1.0 / rho))
            done = server.service(rng.lognormal("work", 1.0, cv))
            done.callbacks.append(lambda ev: sojourns.append(ev.value))

    env.process(arrivals())
    env.run()
    assert len(sojourns) == jobs
    measured = math.fsum(sojourns[warmup:]) / (jobs - warmup)
    assert measured == pytest.approx(1.0 / (1.0 - rho), rel=0.05)


@pytest.mark.parametrize("cores,rho",
                         [(2, 0.5), (2, 0.8), (4, 0.5), (4, 0.8)])
def test_mmc_ps_mean_sojourn_matches_erlang_c(cores, rho):
    """M/M/c oracle: with exponential work a c-core PS server runs
    min(n, c) jobs' worth of work at once, the occupancy process of
    M/M/c, so by Little's law its mean sojourn is
    C(c, a) / (c mu - lambda) + 1 / mu (Erlang-C).  mu = 1, lambda =
    rho * c, fixed seed.  The 5% tolerance is about 2.5 standard
    deviations of the estimate across seeds at rho = 0.8 and c = 2; a
    server that pooled its cores into one fast core (M/M/1 at rate c)
    would miss by 25% at c = 2, rho = 0.5."""
    jobs, warmup = 200_000, 10_000
    arrival_rate = rho * cores
    rng = RandomStreams(seed=5)
    env = Environment()
    server = ProcessorSharingServer(env, cores=cores, rate=1.0)
    sojourns = []

    def arrivals():
        for _ in range(jobs):
            yield env.timeout(
                rng.exponential("arrivals", 1.0 / arrival_rate))
            done = server.service(rng.exponential("work", 1.0))
            done.callbacks.append(lambda ev: sojourns.append(ev.value))

    env.process(arrivals())
    env.run()
    assert len(sojourns) == jobs
    measured = math.fsum(sojourns[warmup:]) / (jobs - warmup)
    expected = erlang_c(cores, arrival_rate) / (cores - arrival_rate) + 1.0
    assert measured == pytest.approx(expected, rel=0.05)
