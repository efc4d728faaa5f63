"""Tests for deterministic random streams and distributions."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams, ZipfSampler


def test_streams_are_deterministic_across_instances():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert [a.exponential("x", 1.0) for _ in range(5)] == \
        [b.exponential("x", 1.0) for _ in range(5)]


def test_streams_differ_by_name_and_seed():
    rs = RandomStreams(seed=7)
    xs = [rs.exponential("x", 1.0) for _ in range(5)]
    ys = [rs.exponential("y", 1.0) for _ in range(5)]
    assert xs != ys
    other = RandomStreams(seed=8)
    assert xs != [other.exponential("x", 1.0) for _ in range(5)]


def test_streams_independent_of_draw_order():
    """Drawing from stream 'a' must not perturb stream 'b'."""
    rs1 = RandomStreams(seed=3)
    _ = [rs1.exponential("a", 1.0) for _ in range(100)]
    b_after = rs1.exponential("b", 1.0)
    rs2 = RandomStreams(seed=3)
    b_direct = rs2.exponential("b", 1.0)
    assert b_after == b_direct


def test_exponential_mean_converges():
    rs = RandomStreams(seed=1)
    xs = [rs.exponential("m", 2.0) for _ in range(20000)]
    assert statistics.mean(xs) == pytest.approx(2.0, rel=0.05)


def test_lognormal_mean_and_cv():
    rs = RandomStreams(seed=2)
    xs = [rs.lognormal("ln", mean=5.0, cv=0.7) for _ in range(30000)]
    m = statistics.mean(xs)
    cv = statistics.stdev(xs) / m
    assert m == pytest.approx(5.0, rel=0.05)
    assert cv == pytest.approx(0.7, rel=0.1)


def test_lognormal_zero_cv_is_deterministic():
    rs = RandomStreams(seed=2)
    assert rs.lognormal("d", mean=3.0, cv=0.0) == 3.0


def test_lognormal_rejects_bad_mean():
    rs = RandomStreams(seed=2)
    with pytest.raises(ValueError):
        rs.lognormal("d", mean=0.0, cv=1.0)


@pytest.mark.parametrize("cv", [0.0, 0.05, 0.2, 0.5, 1.0, 3.0])
def test_lognormal_handle_draws_bit_identically(cv):
    """A handle on stream ``name`` draws exactly what ``lognormal`` on
    a fresh same-named stream draws, over a grid of means read per
    draw, and (at cv = 0) draws nothing from the stream."""
    means = [1e-6, 3e-4, 0.01, 1.0, 2.5, 40.0, 1e3]
    handle = RandomStreams(seed=9).lognormal_handle("work.x", cv)
    reference = RandomStreams(seed=9)
    for _ in range(3):
        for mean in means:
            assert handle(mean) == reference.lognormal("work.x", mean, cv)
    with pytest.raises(ValueError):
        handle(0.0)


class CountingRandom(random.Random):
    """A stream that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@settings(max_examples=40, deadline=None)
@given(cv=st.sampled_from([0.01, 0.05, 0.3, 1.0, 3.0]),
       means=st.lists(st.floats(min_value=1e-6, max_value=1e4),
                      min_size=1, max_size=8),
       rounds=st.integers(min_value=1, max_value=40))
def test_property_inlined_draw_matches_lognormvariate_and_its_state(
        cv, means, rounds):
    """The handle's inlined Kinderman-Monahan loop returns exactly what
    ``Random.lognormvariate`` returns and leaves the stream in the same
    ``getstate()``, draw by draw, over a cv grid from 0.01 to 3.0."""
    streams = RandomStreams(seed=13)
    draw = streams.lognormal_handle("work.x", cv)
    stream = streams.stream("work.x")
    reference = random.Random(0)
    reference.setstate(stream.getstate())
    sigma2 = math.log(1.0 + cv * cv)
    for _ in range(rounds):
        for mean in means:
            want = reference.lognormvariate(math.log(mean) - sigma2 / 2.0,
                                            math.sqrt(sigma2))
            assert draw(mean) == want
            assert stream.getstate() == reference.getstate()


@pytest.mark.parametrize("cv", [0.01, 3.0])
def test_lognormal_handle_stays_in_step_through_rejections(cv):
    """2,000 draws at the grid's ends end in the same stream state as
    ``lognormvariate``'s.  A rejected candidate costs two ``random()``
    calls; about 27% are rejected, so the reference's call count shows
    the loop ran more than once for hundreds of draws."""
    draws = 2000
    streams = RandomStreams(seed=21)
    draw = streams.lognormal_handle("w", cv)
    reference = CountingRandom(0)
    reference.setstate(streams.stream("w").getstate())
    sigma2 = math.log(1.0 + cv * cv)
    for i in range(draws):
        mean = 0.5 + i % 7
        assert draw(mean) == reference.lognormvariate(
            math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2))
    assert streams.stream("w").getstate() == reference.getstate()
    assert reference.calls > 2 * draws * 1.2


@pytest.mark.parametrize("mean", [0.0, -1.0, -1e-300])
def test_lognormal_handle_rejects_bad_mean_before_any_draw(mean):
    streams = RandomStreams(seed=9)
    draw = streams.lognormal_handle("w", 0.5)
    before = streams.stream("w").getstate()
    with pytest.raises(ValueError):
        draw(mean)
    assert streams.stream("w").getstate() == before


def test_lognormal_handle_at_zero_cv_leaves_the_stream_untouched():
    rs = RandomStreams(seed=9)
    assert rs.lognormal_handle("w", 0.0)(2.0) == 2.0
    assert rs.exponential("w", 1.0) == RandomStreams(seed=9).exponential(
        "w", 1.0)


def test_choice_weighted_respects_weights():
    rs = RandomStreams(seed=5)
    picks = [rs.choice_weighted("c", ["a", "b"], [9.0, 1.0])
             for _ in range(5000)]
    share_a = picks.count("a") / len(picks)
    assert share_a == pytest.approx(0.9, abs=0.03)


def test_zipf_rank_zero_most_popular():
    rs = RandomStreams(seed=6)
    sampler = rs.zipf("z", n=100, s=1.2)
    counts = [0] * 100
    for _ in range(20000):
        counts[sampler.sample()] += 1
    assert counts[0] == max(counts)
    assert counts[0] > 4 * counts[50]


def test_zipf_uniform_when_s_zero():
    rs = RandomStreams(seed=6)
    sampler = rs.zipf("z0", n=10, s=0.0)
    for rank in range(10):
        assert sampler.probability(rank) == pytest.approx(0.1)


def test_zipf_invalid_args():
    rs = RandomStreams(seed=6)
    with pytest.raises(ValueError):
        rs.zipf("bad", n=0, s=1.0)
    with pytest.raises(ValueError):
        rs.zipf("bad", n=5, s=-1.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       s=st.floats(min_value=0.0, max_value=3.0))
def test_property_zipf_probabilities_sum_to_one(n, s):
    rs = RandomStreams(seed=11)
    sampler = ZipfSampler(n, s, rs.stream("prop"))
    total = sum(sampler.probability(r) for r in range(n))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=200),
       s=st.floats(min_value=0.1, max_value=3.0))
def test_property_zipf_probabilities_monotone(n, s):
    rs = RandomStreams(seed=12)
    sampler = ZipfSampler(n, s, rs.stream("mono"))
    probs = [sampler.probability(r) for r in range(n)]
    assert all(probs[i] >= probs[i + 1] - 1e-12 for i in range(n - 1))
