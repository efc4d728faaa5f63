"""One application deployed across several regions.

:class:`MultiRegionDeployment` builds a full per-region
:class:`~repro.core.deployment.Deployment` (its own cluster, intra-region
fabric, trace collector, and derived RNG seed) for every region in a
:class:`~repro.region.topology.RegionTopology`, and wires them through
the cross-region fabric built from the topology's RTT/loss matrix.

It is deliberately duck-type compatible with the single-cluster
``Deployment`` where the chaos and validation layers need it —
``env`` / ``app`` / ``cluster`` (merged) / ``fabric`` (the *cross-region*
fabric) / ``rng`` / ``service_names`` / ``instances_of`` — so
``FaultSchedule.arm`` and the FAULT validators run unchanged.
Machine-scale faults target a single region's sub-deployment
(``deployment.region(name)``); region-scale faults
(:class:`~repro.region.RegionOutage`,
:class:`~repro.region.InterRegionPartition`) target this object.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..arch.platform import XEON
from ..cluster.cluster import Cluster
from ..core.deployment import Deployment
from ..sim.engine import Environment
from ..sim.rng import RandomStreams
from .topology import RegionTopology

__all__ = ["MultiRegionDeployment"]


class MultiRegionDeployment:
    """Per-region deployments behind one cross-region fabric."""

    def __init__(self, env: Environment, app, topology: RegionTopology,
                 replicas: Optional[Dict[str, int]] = None,
                 seed: int = 0):
        self.env = env
        self.app = app
        self.topology = topology
        self.seed = seed
        self.rng = RandomStreams(seed)
        self.fabric = topology.build_fabric(env, self.rng)
        self._regions: Dict[str, Deployment] = {}
        # The app may constrain its footprint; the runtime counterpart
        # of lint's TOPO006/FAULT004 checks.
        declared = list(getattr(app, "regions", ()) or ())
        if declared:
            missing = [r for r in declared if r not in topology.names]
            if missing:
                raise ValueError(
                    f"app {app.name!r} declares region(s) "
                    f"{missing} absent from the topology "
                    f"({', '.join(topology.names)})")
        for pinned, region in (getattr(app, "service_regions", {})
                               or {}).items():
            if region not in topology.names:
                raise ValueError(
                    f"service {pinned!r} is pinned to region "
                    f"{region!r}, not in the topology "
                    f"({', '.join(topology.names)})")
        merged: Optional[Cluster] = None
        for idx, spec in enumerate(topology.regions):
            cluster = Cluster.homogeneous(
                env, spec.platform or XEON, spec.machines,
                name_prefix=f"{spec.name}-m")
            # Derived seeds keep per-region RNG streams independent and
            # replayable from the one top-level seed.
            self._regions[spec.name] = Deployment(
                env, app, cluster, replicas=replicas,
                seed=seed + 1000 * (idx + 1))
            merged = cluster if merged is None else merged.merge(cluster)
        self.cluster = merged

    # -- region access -----------------------------------------------------
    @property
    def region_names(self) -> List[str]:
        """Region names in topology order (FAULT004's vocabulary)."""
        return self.topology.names

    def region(self, name: str) -> Deployment:
        """One region's sub-deployment (machine-scale fault target)."""
        try:
            return self._regions[name]
        except KeyError:
            raise ValueError(
                f"unknown region {name!r} (have: "
                f"{', '.join(self.region_names)})") from None

    def region_of_machine(self, machine_id: str) -> Optional[str]:
        """Which region hosts a machine id, or None."""
        for name, dep in self._regions.items():
            if any(m.machine_id == machine_id
                   for m in dep.cluster.machines):
                return name
        return None

    # -- Deployment-compatible surface ------------------------------------
    def service_names(self) -> List[str]:
        return self._regions[self.region_names[0]].service_names()

    def instances_of(self, service: str) -> list:
        """All replicas of a service, concatenated in region order."""
        out = []
        for name in self.region_names:
            out.extend(self._regions[name].instances_of(service))
        return out

    def tier(self, service: str):
        """Region 0's record of ``service``.  The setters below fan out
        to every region, so every region's record reads the same."""
        return self._regions[self.region_names[0]].tier(service)

    def slow_down_service(self, service: str, factor: float) -> None:
        for name in self.region_names:
            self._regions[name].slow_down_service(service, factor)

    def delay_service(self, service: str, seconds: float) -> None:
        for name in self.region_names:
            self._regions[name].delay_service(service, seconds)

    def set_cache_hit_ratio(self, service: str, ratio: float,
                            miss_penalty: float = 4.0) -> None:
        for name in self.region_names:
            self._regions[name].set_cache_hit_ratio(service, ratio,
                                                    miss_penalty)

    def breakers(self) -> dict:
        """All breakers across regions, keyed by edge (regions share
        edge keys; attribution queries by label, so the merge is
        lossless for its purposes)."""
        merged: dict = {}
        for name in self.region_names:
            merged.update(self._regions[name].breakers())
        return merged

    def load_balancer(self, service: str):
        raise NotImplementedError(
            "no global load balancer: target one region's "
            "sub-deployment via deployment.region(name), or route "
            "through the FrontDoor")
