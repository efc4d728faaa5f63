"""Tests for the standard instrumentation across the stack."""

import pytest

from repro.apps import build_app
from repro.core import simulate
from repro.obs import MetricsRegistry


def run_instrumented(**kwargs):
    params = dict(qps=30, duration=6.0, n_machines=4, seed=7,
                  metrics=True)
    params.update(kwargs)
    return simulate(build_app("banking"), **params)


def test_request_and_rpc_counters_match_collector():
    result = run_instrumented()
    reg = result.metrics
    collector = result.collector
    total = sum(
        child.value for child in
        reg._families["repro_requests_total"].children.values())
    assert total == collector.total_collected
    assert reg.value("repro_offered_requests_total") \
        == result.generator.issued
    # Per-tier RPC counts match a direct walk over retained traces.
    walked = 0
    for trace in collector.traces:
        walked += len(list(trace.root.walk()))
    rpc_total = sum(
        child.value for child in
        reg._families["repro_rpc_total"].children.values())
    assert rpc_total == walked


def test_latency_histograms_populated():
    result = run_instrumented()
    reg = result.metrics
    hist = reg._families["repro_request_latency_seconds"]
    counts = sum(child.count for child in hist.children.values())
    assert counts == result.collector.ok_count
    span_hist = reg._families["repro_span_latency_seconds"]
    assert any(child.count > 0 for child in span_hist.children.values())


def test_utilization_and_queue_series_scraped():
    result = run_instrumented()
    reg = result.metrics
    front = result.deployment.service_names()[0]
    util = reg.series("repro_cpu_utilization", service=front)
    assert len(util) >= 5
    assert any(v > 0 for _, v in util)
    assert all(0.0 <= v <= 1.0 for _, v in util)
    assert reg.series("repro_run_queue_depth", service=front)
    assert reg.value("repro_replicas", service=front) \
        == len(result.deployment.instances_of(front))


def test_nic_queue_and_net_share_metrics_exist():
    result = run_instrumented()
    reg = result.metrics
    machine = result.deployment.cluster.machines[0]
    for direction in ("tx", "rx"):
        assert reg.series("repro_nic_queue_depth",
                          machine=machine.machine_id,
                          direction=direction) is not None
    front = result.deployment.service_names()[0]
    share = reg.value("repro_net_cpu_share", service=front)
    assert 0.0 <= share <= 1.0


def test_resilience_counters_mirrored():
    from repro.resilience import ResiliencePolicy
    policy = ResiliencePolicy(rpc_timeout=0.02, max_retries=1,
                              backoff_base=0.005)
    result = run_instrumented(qps=60, default_policy=policy)
    reg = result.metrics
    stats = result.deployment.resilience_stats
    for event in sorted(stats):
        assert reg.value("repro_resilience_events_total",
                         event=event) == stats[event]


def test_cache_hit_ratio_metrics():
    app = build_app("social_network")

    def arm(deployment):
        deployment.set_cache_hit_ratio("mc-posts", 0.8)

    result = simulate(app, qps=40, duration=6.0, n_machines=4, seed=5,
                      metrics=True, setup=arm)
    stats = result.deployment.tier("mc-posts").cache_stats
    lookups = stats["hit"] + stats["miss"]
    assert lookups > 0
    reg = result.metrics
    assert reg.value("repro_cache_requests_total", service="mc-posts",
                     outcome="hit") == stats["hit"]
    ratio = reg.value("repro_cache_hit_ratio", service="mc-posts")
    assert ratio == pytest.approx(stats["hit"] / lookups)
    # A 0.8 target should land in a plausible band with enough draws.
    assert 0.5 < ratio <= 1.0


def test_cache_sampling_off_by_default_keeps_runs_identical():
    base = simulate(build_app("social_network"), qps=20, duration=4.0,
                    n_machines=3, seed=9)
    instrumented = simulate(build_app("social_network"), qps=20,
                            duration=4.0, n_machines=3, seed=9,
                            metrics=True)
    assert base.collector.total_collected \
        == instrumented.collector.total_collected
    assert list(base.latencies()) == list(instrumented.latencies())


def test_custom_registry_and_scrape_period():
    reg = MetricsRegistry(scrape_period=0.25)
    result = run_instrumented(duration=3.0, metrics=reg)
    assert result.metrics is reg
    front = result.deployment.service_names()[0]
    points = reg.series("repro_cpu_utilization", service=front)
    assert len(points) >= 10  # 0.25s cadence over 3s
