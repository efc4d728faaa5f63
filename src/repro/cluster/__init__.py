"""Cluster substrate: machines, placement, balancing, autoscaling,
health checking."""

from .. import _lazy

_EXPORTS = {
    "UtilizationAutoscaler": ".autoscaler",
    "DependencyAwareAutoscaler": ".depscaler",
    "Cluster": ".cluster",
    "HealthCheckConfig": ".health",
    "HealthChecker": ".health",
    "HealthEvent": ".health",
    "KeyHash": ".loadbalancer",
    "LeastOutstanding": ".loadbalancer",
    "LoadBalancer": ".loadbalancer",
    "RoundRobin": ".loadbalancer",
    "NIC_10G_KB_PER_S": ".machine",
    "Machine": ".machine",
    "ServiceInstance": ".machine",
    "TokenBucket": ".ratelimit",
    "AutoscalerEvent": ".scaling",
    "ScalingBookkeeper": ".scaling",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
