"""Tests for the Lambda/EC2 serverless models."""

import pytest

from repro.apps import build_app
from repro.core.experiment import run_experiment
from repro.serverless import Ec2CostModel, LambdaConfig, LambdaDeployment
from repro.sim import Environment


def run_lambda(backend="s3", qps=30, duration=10.0, seed=1,
               app_name="social_network", config_kwargs=None):
    env = Environment()
    app = build_app(app_name)
    kwargs = dict(state_backend=backend)
    kwargs.update(config_kwargs or {})
    dep = LambdaDeployment(env, app, LambdaConfig(**kwargs), seed=seed)
    result = run_experiment(dep, qps, duration=duration, seed=seed + 1)
    return dep, result


def test_config_validation():
    with pytest.raises(ValueError):
        LambdaConfig(state_backend="floppy")
    with pytest.raises(ValueError):
        LambdaConfig(memory_gb=0.0)


def test_s3_much_slower_than_memory():
    """Fig. 21: latency is considerably higher for Lambda on S3."""
    _, s3 = run_lambda("s3")
    _, mem = run_lambda("memory")
    assert s3.mean_latency() > 3.0 * mem.mean_latency()


def test_lambda_usage_accounting():
    dep, result = run_lambda("s3")
    usage = dep.usage
    assert usage.invocations > 0
    assert usage.gb_seconds > 0
    assert usage.s3_puts == usage.s3_gets > 0
    assert usage.cold_starts > 0
    # One invocation per call-tree node per completed+in-flight request.
    assert usage.invocations >= result.collector.total_collected


def test_memory_backend_uses_no_s3():
    dep, _ = run_lambda("memory")
    assert dep.usage.s3_puts == 0
    assert dep.usage.extra_hourly_usd > 0


def test_cold_starts_shrink_when_warm():
    """Steady load keeps containers warm: cold starts concentrate early."""
    dep, result = run_lambda("memory", qps=50, duration=20.0)
    early = [t for t in result.collector.traces if t.start < 2.0]
    assert dep.usage.cold_starts < dep.usage.invocations * 0.2


def test_lambda_mem_costs_more_than_s3():
    """Fig. 21: Lambda(mem) is somewhat pricier than Lambda(S3) — the
    four remote-memory instances outweigh the saved S3 charges."""
    dep_s3, _ = run_lambda("s3", duration=10.0)
    dep_mem, _ = run_lambda("memory", duration=10.0)
    ten_minutes = 600.0
    scale = ten_minutes / 10.0
    cost_s3 = (dep_s3.usage.invocations / 1e6 * 0.2 * scale
               + dep_s3.usage.gb_seconds * 1.6667e-5 * scale
               + dep_s3.usage.s3_puts / 1e3 * 0.005 * scale
               + dep_s3.usage.s3_gets / 1e3 * 0.0004 * scale)
    cost_mem = (dep_mem.usage.invocations / 1e6 * 0.2 * scale
                + dep_mem.usage.gb_seconds * 1.6667e-5 * scale
                + dep_mem.usage.extra_hourly_usd * ten_minutes / 3600.0)
    assert cost_mem > cost_s3 * 0.8  # close, and typically above


def test_ec2_order_of_magnitude_pricier_than_lambda():
    """Fig. 21's headline: EC2 ~10x the serverless bill."""
    dep, _ = run_lambda("s3", qps=30, duration=10.0)
    ten_minutes = 600.0
    lam_cost = dep.cost_usd(10.0) * (ten_minutes / 10.0)
    ec2_cost = Ec2CostModel().cost_fixed(instances=40,
                                         duration_s=ten_minutes)
    assert ec2_cost > 5.0 * lam_cost


def test_ec2_cost_model():
    model = Ec2CostModel(hourly_usd=2.0)
    assert model.cost_fixed(10, 3600.0) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        model.cost_fixed(-1, 10.0)


def test_lambda_unknown_operation():
    env = Environment()
    dep = LambdaDeployment(env, build_app("banking"))
    with pytest.raises(KeyError):
        dep.execute("teleport")


def test_lambda_traces_have_structure():
    dep, result = run_lambda("memory", qps=20, duration=5.0)
    trace = result.collector.traces[0]
    assert trace.root.end > trace.root.start
    assert len(trace.root.children) >= 1


def test_higher_jitter_wider_distribution():
    _, calm = run_lambda("memory", config_kwargs={"jitter_cv": 0.05},
                         duration=15.0)
    _, noisy = run_lambda("memory", config_kwargs={"jitter_cv": 1.0},
                          duration=15.0)
    calm_spread = calm.tail(0.99) / calm.tail(0.5)
    noisy_spread = noisy.tail(0.99) / noisy.tail(0.5)
    assert noisy_spread > calm_spread
