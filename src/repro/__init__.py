"""repro — a reproduction of DeathStarBench (ASPLOS 2019) in Python.

An open-source benchmark suite for microservices, rebuilt as a
high-fidelity discrete-event simulation: the six end-to-end
applications (social network, media service, e-commerce, banking, and
the two drone-swarm configurations), the cluster/network/architecture
substrates they run on, distributed tracing, autoscaling, a serverless
deployment model, and the experiment harness that regenerates every
table and figure of the paper's evaluation.

Quick start::

    from repro import DeathStarBench, simulate

    suite = DeathStarBench()
    app = suite.build("social_network")
    result = simulate(app, qps=100, duration=30.0)
    print(result.tail(0.99), result.throughput())
"""

import sys
from importlib import import_module

__version__ = "1.0.0"

#: Each public name -> the submodule that defines it.  A name's
#: submodule is imported on first access (PEP 562), so ``import repro``
#: loads nothing and a run loads only the subpackages it uses.
_EXPORTS = {
    "AnalyticModel": ".analytic",
    "app_names": ".apps",
    "build_app": ".apps",
    "build_monolith": ".apps",
    "FaultSchedule": ".chaos",
    "Scorecard": ".chaos",
    "SteadyStateHypothesis": ".chaos",
    "run_chaos_scenario": ".chaos",
    "run_chaos_suite": ".chaos",
    "HealthCheckConfig": ".cluster",
    "HealthChecker": ".cluster",
    "DeathStarBench": ".core",
    "Deployment": ".core",
    "ExperimentResult": ".core",
    "QoSTarget": ".core",
    "balanced_provision": ".core",
    "run_experiment": ".core",
    "simulate": ".core",
    "MetricsRegistry": ".obs",
    "QoSReport": ".obs",
    "attribute_qos_violations": ".obs",
    "to_prometheus_text": ".obs",
    "traces_to_otlp_json": ".obs",
    "BreakerConfig": ".resilience",
    "LoadShedder": ".resilience",
    "ResiliencePolicy": ".resilience",
    "Application": ".services",
    "CallNode": ".services",
    "Operation": ".services",
    "ServiceDefinition": ".services",
}

__all__ = [
    "AnalyticModel",
    "Application",
    "BreakerConfig",
    "CallNode",
    "DeathStarBench",
    "Deployment",
    "ExperimentResult",
    "FaultSchedule",
    "HealthCheckConfig",
    "HealthChecker",
    "LoadShedder",
    "MetricsRegistry",
    "Operation",
    "QoSReport",
    "QoSTarget",
    "ResiliencePolicy",
    "Scorecard",
    "ServiceDefinition",
    "SteadyStateHypothesis",
    "app_names",
    "attribute_qos_violations",
    "balanced_provision",
    "build_app",
    "build_monolith",
    "run_chaos_scenario",
    "run_chaos_suite",
    "run_experiment",
    "simulate",
    "to_prometheus_text",
    "traces_to_otlp_json",
    "__version__",
]


def _lazy(package: str, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``, whose
    ``exports`` map each public name to its defining submodule: the
    submodule is imported on first access and the name cached in the
    package namespace."""
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
