"""Cluster substrate: machines, placement, balancing, autoscaling,
health checking."""

from .autoscaler import UtilizationAutoscaler
from .depscaler import DependencyAwareAutoscaler
from .cluster import Cluster
from .health import HealthCheckConfig, HealthChecker, HealthEvent
from .loadbalancer import KeyHash, LeastOutstanding, LoadBalancer, RoundRobin
from .machine import NIC_10G_KB_PER_S, Machine, ServiceInstance
from .ratelimit import TokenBucket
from .scaling import AutoscalerEvent, ScalingBookkeeper

__all__ = [
    "AutoscalerEvent",
    "ScalingBookkeeper",
    "Cluster",
    "DependencyAwareAutoscaler",
    "HealthCheckConfig",
    "HealthChecker",
    "HealthEvent",
    "KeyHash",
    "LeastOutstanding",
    "LoadBalancer",
    "Machine",
    "NIC_10G_KB_PER_S",
    "RoundRobin",
    "ServiceInstance",
    "TokenBucket",
    "UtilizationAutoscaler",
]
