"""EC2 container-deployment cost model (the Fig. 21 comparator).

The paper runs each service on 20-64 dedicated m5.12xlarge instances
and compares against Lambda.  Cost is provisioned instance-hours —
whether or not the instances are busy — which is exactly why the
serverless bill comes out ~10x lower for bursty load.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Ec2CostModel"]


@dataclass(frozen=True)
class Ec2CostModel:
    """Hourly billing for a fleet of identical instances."""

    hourly_usd: float = 2.304  # m5.12xlarge on-demand

    def cost_fixed(self, instances: int, duration_s: float) -> float:
        """Bill for a fixed fleet over ``duration_s`` seconds."""
        if instances < 0 or duration_s < 0:
            raise ValueError("instances and duration must be >= 0")
        return instances * self.hourly_usd * duration_s / 3600.0
