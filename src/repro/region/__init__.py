"""Multi-region deployments: regions, geo routing, replication, chaos.

The region layer composes the existing single-cluster machinery into a
planet-scale story (the paper's cloud/edge failure-domain hierarchy,
one level up):

* :class:`RegionTopology` / :class:`RegionSpec` — named regions with an
  inter-region RTT/loss matrix, user-population shares, and per-region
  workload-clock offsets;
* :class:`MultiRegionDeployment` — one full per-region deployment
  behind a cross-region :class:`~repro.net.fabric.NetworkFabric` whose
  zones are region names;
* :class:`FrontDoor` — geo/latency-aware routing with health-probe
  failover (``sticky`` mode is the ablation baseline);
* :class:`ReplicationManager` — async bounded-staleness replication;
  failed-over reads can be stale, and the traces say so;
* :class:`RegionOutage` / :class:`InterRegionPartition` — region-scale
  chaos on deterministic fault schedules;
* :func:`run_region_scenario` / :class:`GlobalScorecard` — the harness
  and the globally-scoped resilience scorecard (blast radius per
  region, cross-region MTTR, stale-read counts).
"""

from .. import _lazy

_EXPORTS = {
    "MultiRegionDeployment": ".deployment",
    "InterRegionPartition": ".faults",
    "RegionOutage": ".faults",
    "FrontDoor": ".frontdoor",
    "FrontDoorConfig": ".frontdoor",
    "FrontDoorEvent": ".frontdoor",
    "PopulationClient": ".frontdoor",
    "GlobalScorecard": ".harness",
    "RegionResult": ".harness",
    "RegionRun": ".harness",
    "run_region_scenario": ".harness",
    "ReplicationManager": ".replication",
    "DEFAULT_INTER_REGION_RTT": ".topology",
    "RegionSpec": ".topology",
    "RegionTopology": ".topology",
    "two_region_topology": ".topology",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
