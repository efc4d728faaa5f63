"""Swarm coordination (Sec. 3.6, Fig. 8).

Coordinating a swarm of programmable drones doing image recognition and
obstacle avoidance, in two configurations:

* **Swarm-Edge** (Fig. 8a): computation on the drones.  On-drone
  services (controller, motion control, image recognition in node.js
  ``jimp``, obstacle avoidance in C++) run natively and talk over IPC
  (they land on the same drone "machine", which the network fabric
  short-circuits to IPC); the cloud only constructs routes and keeps
  persistent sensor stores, reached over HTTP to avoid Thrift's heavy
  dependencies on the edge.  21 unique microservices.

* **Swarm-Cloud** (Fig. 8b): the cloud runs motion control, image
  recognition (OpenCV/ardrone-autonomy), and obstacle avoidance for all
  drones; drones only ship sensor data.  Every action pays the
  cloud-edge wireless latency, but gets datacenter cores.  25 unique
  microservices.

This is the Fig. 9 experiment: cloud wins massively on the
compute-bound image-recognition path at load (the drone SoC saturates
almost immediately), while at low load the edge path's latency is far
lower because it skips the wifi round trip — and obstacle avoidance,
being latency-critical and cheap, belongs at the edge.
"""

from __future__ import annotations

from typing import Dict

from ..resilience.criticality import (
    CRIT_DEGRADABLE,
    CRIT_SHEDDABLE,
    DegradationPolicy,
)
from ..services.app import Application, Operation, Protocol
from ..services.calltree import CallNode, par, seq
from ..services.definition import ServiceDefinition, ServiceKind
from ..services.datastores import mongodb, nginx

__all__ = ["build_swarm_cloud", "build_swarm_edge", "SWARM_QOS"]

SWARM_QOS = 0.20


def _svc(name: str, language: str, work_us: float, cv: float = 0.5,
         kind: str = ServiceKind.LOGIC, beta: float = 0.95,
         **traits) -> ServiceDefinition:
    svc = ServiceDefinition(name=name, language=language, kind=kind,
                            work_mean=work_us * 1e-6, work_cv=cv,
                            freq_sensitivity=beta)
    return svc.with_traits(**traits) if traits else svc


def _sensor_services() -> Dict[str, ServiceDefinition]:
    """On-drone sensor pipelines, common to both configurations."""
    defs = [
        _svc("camera-image", "c", 120, kind=ServiceKind.EDGE),
        _svc("camera-video", "c", 300, kind=ServiceKind.EDGE),
        _svc("location", "c", 30, kind=ServiceKind.EDGE),
        _svc("speed", "c", 25, kind=ServiceKind.EDGE),
        _svc("luminosity", "c", 20, kind=ServiceKind.EDGE),
        _svc("orientation", "c", 25, kind=ServiceKind.EDGE),
        _svc("log", "node.js", 60, kind=ServiceKind.EDGE),
        # Auxiliary tiers (the paper mentions maintenance and service
        # discovery components, and the edge router relaying wifi).
        _svc("edge-router", "c", 35, kind=ServiceKind.EDGE,
             kernel_share=0.7, library_share=0.1),
        _svc("diagnostics", "node.js", 80, kind=ServiceKind.EDGE),
    ]
    return {svc.name: svc for svc in defs}


def _cloud_stores() -> Dict[str, ServiceDefinition]:
    """Persistent sensor-data stores kept in the cloud."""
    names = ["targetDB", "orientationDB", "luminosityDB", "speedDB",
             "locationDB", "videoDB", "imageDB", "stockImageDB"]
    return {name: mongodb(name) for name in names}


def _recognition(where: str) -> ServiceDefinition:
    """Image recognition: jimp (node.js) at the edge, OpenCV in cloud."""
    if where == "edge":
        return _svc("imageRecognition", "node.js", 12000, cv=0.5,
                    kind=ServiceKind.EDGE, memory_locality=0.3,
                    kernel_share=0.1, library_share=0.6)
    return _svc("imageRecognition", "c++", 8000, cv=0.5,
                kind=ServiceKind.ML, memory_locality=0.3)


def _avoidance(where: str) -> ServiceDefinition:
    """Obstacle avoidance in C++; cheap but latency-critical."""
    kind = ServiceKind.EDGE if where == "edge" else ServiceKind.LOGIC
    # Tight, latency-critical control loop: cheap on any core.
    return _svc("obstacleAvoidance", "c++", 250, cv=0.4, kind=kind,
                memory_locality=0.6)


def build_swarm_cloud() -> Application:
    """Swarm with cloud-side computation (Fig. 8b): 25 services."""
    services: Dict[str, ServiceDefinition] = {}
    services["nginx-lb"] = nginx("nginx-lb", work_mean=40e-6)
    services["cloud-frontend"] = _svc("cloud-frontend", "java", 150,
                                      kind=ServiceKind.FRONTEND)
    services["controller"] = _svc("controller", "javascript", 60)
    services["motionControl"] = _svc("motionControl", "javascript", 150)
    services["constructRoute"] = _svc("constructRoute", "java", 900)
    services["imageRecognition"] = _recognition("cloud")
    services["obstacleAvoidance"] = _avoidance("cloud")
    services["serviceDiscovery"] = _svc("serviceDiscovery", "go", 40)
    services.update(_cloud_stores())
    services.update(_sensor_services())

    zones = {name: "edge" for name in _sensor_services()}

    ops = {}
    ops["recognizeImage"] = Operation(
        name="recognizeImage", weight=40.0,
        root=CallNode(service="camera-image", request_kb=0.5,
                      response_kb=1.0, groups=seq(
            CallNode(service="controller", groups=seq(
                CallNode(service="nginx-lb", request_kb=80.0, groups=seq(
                    CallNode(service="cloud-frontend", request_kb=80.0,
                             groups=seq(
                        CallNode(service="imageRecognition",
                                 request_kb=80.0, groups=[
                            [CallNode(service="stockImageDB"),
                             CallNode(service="imageDB")],
                        ]))))))))))
    ops["avoidObstacle"] = Operation(
        name="avoidObstacle", weight=40.0,
        root=CallNode(service="location", groups=seq(
            CallNode(service="controller", groups=seq(
                CallNode(service="nginx-lb", request_kb=4.0, groups=seq(
                    CallNode(service="cloud-frontend", groups=seq(
                        CallNode(service="obstacleAvoidance", groups=[
                            [CallNode(service="locationDB",
                                      work_scale=0.3),
                             CallNode(service="speedDB",
                                      work_scale=0.3)],
                            [CallNode(service="motionControl")],
                        ]))))))))))
    ops["archiveVideo"] = Operation(
        name="archiveVideo", weight=5.0,
        root=CallNode(service="camera-video", request_kb=0.5, groups=seq(
            CallNode(service="edge-router", request_kb=256.0, groups=seq(
                CallNode(service="nginx-lb", request_kb=256.0, groups=seq(
                    CallNode(service="cloud-frontend", groups=seq(
                        CallNode(service="videoDB",
                                 request_kb=256.0))))))))))
    ops["constructRoute"] = Operation(
        name="constructRoute", weight=5.0,
        root=CallNode(service="nginx-lb", request_kb=2.0, groups=seq(
            CallNode(service="cloud-frontend", groups=seq(
                CallNode(service="serviceDiscovery"),
                CallNode(service="constructRoute", groups=[
                    [CallNode(service="targetDB"),
                     CallNode(service="locationDB")],
                ]))))))
    ops["uploadTelemetry"] = Operation(
        name="uploadTelemetry", weight=15.0,
        root=CallNode(service="speed", groups=seq(
            CallNode(service="orientation"),
            CallNode(service="luminosity"),
            CallNode(service="edge-router", request_kb=8.0, groups=seq(
                CallNode(service="nginx-lb", request_kb=8.0, groups=seq(
                    CallNode(service="cloud-frontend", groups=par(
                        CallNode(service="speedDB"),
                        CallNode(service="orientationDB"),
                        CallNode(service="luminosityDB"))))))),
            CallNode(service="diagnostics"),
            CallNode(service="log"))))

    # Criticality: the flight loops (obstacle avoidance, image
    # recognition) are critical; route planning degrades; archival
    # sheds first under overload.
    ops["constructRoute"].criticality = CRIT_DEGRADABLE
    ops["archiveVideo"].criticality = CRIT_SHEDDABLE
    ops["uploadTelemetry"].criticality = CRIT_DEGRADABLE

    degradation_policies = {
        "diagnostics": DegradationPolicy(
            service="diagnostics", optional=True, drop_level=1,
            fidelity_cost=0.05),
        "log": DegradationPolicy(
            service="log", optional=True, drop_level=2,
            fidelity_cost=0.05),
        # Skip the stock-image comparison under extreme brownout.
        "stockImageDB": DegradationPolicy(
            service="stockImageDB", optional=True, drop_level=1,
            fidelity_cost=0.15),
        # Telemetry stores fan out in parallel; speedDB (no policy)
        # always persists, the rest trim to one under brownout.
        "orientationDB": DegradationPolicy(
            service="orientationDB", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.1),
        "luminosityDB": DegradationPolicy(
            service="luminosityDB", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.1),
        # The actuation loop keeps running whatever the brownout level
        # says (DEG002 guards its placement).
        "obstacleAvoidance": DegradationPolicy(
            service="obstacleAvoidance", never_drop=True),
        "motionControl": DegradationPolicy(
            service="motionControl", never_drop=True),
    }

    return Application(
        name="swarm_cloud",
        services=services,
        operations=ops,
        protocol=Protocol.HTTP,
        qos_latency=SWARM_QOS,
        entry_service="nginx-lb",
        service_zones=zones,
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 11283,
                "protocol": "REST+RPC",
                "handwritten_rest_locs": 2610,
                "handwritten_rpc_locs": 4614,
                "autogen_rpc_locs": 21574,
                "unique_microservices": 25,
                "language_share": {
                    "c": 0.36, "java": 0.19, "javascript": 0.16,
                    "node.js": 0.14, "c++": 0.13, "python": 0.02,
                },
            },
        },
    )


def build_swarm_edge() -> Application:
    """Swarm with on-drone computation (Fig. 8a): 21 services."""
    services: Dict[str, ServiceDefinition] = {}
    services["nginx-lb"] = nginx("nginx-lb", work_mean=40e-6)
    services["cloud-frontend"] = _svc("cloud-frontend", "java", 150,
                                      kind=ServiceKind.FRONTEND)
    services["constructRoute"] = _svc("constructRoute", "java", 900)
    services["controller"] = _svc("controller", "javascript", 60,
                                  kind=ServiceKind.EDGE)
    services["motionControl"] = _svc("motionControl", "javascript", 150,
                                     kind=ServiceKind.EDGE)
    services["imageRecognition"] = _recognition("edge")
    services["obstacleAvoidance"] = _avoidance("edge")
    # Only a subset of stores; most sensor data stays on the drones.
    for name in ["targetDB", "locationDB", "videoDB", "imageDB",
                 "stockImageDB"]:
        services[name] = mongodb(name)
    services.update(_sensor_services())

    zones = {name: "edge" for name in _sensor_services()}
    zones.update({"controller": "edge", "motionControl": "edge",
                  "imageRecognition": "edge", "obstacleAvoidance": "edge"})

    ops = {}
    # All-on-drone paths: IPC between co-located services.
    ops["recognizeImage"] = Operation(
        name="recognizeImage", weight=40.0,
        root=CallNode(service="camera-image", request_kb=0.5,
                      response_kb=1.0, groups=seq(
            CallNode(service="controller", groups=seq(
                CallNode(service="imageRecognition", request_kb=80.0,
                         groups=seq(CallNode(service="log"))))))))
    ops["avoidObstacle"] = Operation(
        name="avoidObstacle", weight=40.0,
        root=CallNode(service="location", groups=seq(
            CallNode(service="controller", groups=seq(
                CallNode(service="obstacleAvoidance", groups=seq(
                    CallNode(service="motionControl"),
                    CallNode(service="log"))))))))
    # Cloud-touching paths: route construction and archival.
    ops["constructRoute"] = Operation(
        name="constructRoute", weight=5.0,
        root=CallNode(service="controller", groups=seq(
            CallNode(service="nginx-lb", request_kb=2.0, groups=seq(
                CallNode(service="cloud-frontend", groups=seq(
                    CallNode(service="constructRoute", groups=[
                        [CallNode(service="targetDB"),
                         CallNode(service="locationDB")],
                    ]))))))))
    ops["archiveMedia"] = Operation(
        name="archiveMedia", weight=10.0,
        root=CallNode(service="camera-video", request_kb=0.5, groups=seq(
            CallNode(service="edge-router", request_kb=256.0, groups=seq(
                CallNode(service="nginx-lb", request_kb=256.0, groups=seq(
                    CallNode(service="cloud-frontend", groups=par(
                        CallNode(service="videoDB", request_kb=256.0),
                        CallNode(service="imageDB", request_kb=64.0),
                        CallNode(service="stockImageDB",
                                 request_kb=8.0))))))),
            CallNode(service="diagnostics"),
            CallNode(service="log"))))
    ops["uploadTelemetry"] = Operation(
        name="uploadTelemetry", weight=5.0,
        root=CallNode(service="speed", groups=seq(
            CallNode(service="orientation"),
            CallNode(service="luminosity"),
            CallNode(service="controller", groups=seq(
                CallNode(service="edge-router", request_kb=8.0, groups=seq(
                    CallNode(service="nginx-lb", request_kb=8.0,
                             groups=seq(
                        CallNode(service="cloud-frontend", groups=seq(
                            CallNode(service="locationDB"))))))))),
            CallNode(service="log"))))

    # Same tiering as the cloud configuration: the on-drone flight
    # loops stay critical, route planning degrades, archival sheds.
    ops["constructRoute"].criticality = CRIT_DEGRADABLE
    ops["archiveMedia"].criticality = CRIT_SHEDDABLE
    ops["uploadTelemetry"].criticality = CRIT_DEGRADABLE

    degradation_policies = {
        "diagnostics": DegradationPolicy(
            service="diagnostics", optional=True, drop_level=1,
            fidelity_cost=0.05),
        "log": DegradationPolicy(
            service="log", optional=True, drop_level=2,
            fidelity_cost=0.05),
        # Archival fans out to three stores; videoDB (no policy) always
        # persists, the image mirrors trim to one under brownout.
        "imageDB": DegradationPolicy(
            service="imageDB", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.15),
        "stockImageDB": DegradationPolicy(
            service="stockImageDB", fanout_keep=1, fanout_level=1,
            fidelity_cost=0.15),
        "obstacleAvoidance": DegradationPolicy(
            service="obstacleAvoidance", never_drop=True),
        "motionControl": DegradationPolicy(
            service="motionControl", never_drop=True),
    }

    return Application(
        name="swarm_edge",
        services=services,
        operations=ops,
        protocol=Protocol.HTTP,
        qos_latency=SWARM_QOS,
        entry_service="controller",
        service_zones=zones,
        degradation_policies=degradation_policies,
        metadata={
            "paper_table1": {
                "total_locs": 13876,
                "protocol": "REST",
                "handwritten_rest_locs": 4757,
                "unique_microservices": 21,
                "language_share": {
                    "c": 0.29, "javascript": 0.25, "java": 0.16,
                    "node.js": 0.16, "c++": 0.11, "python": 0.03,
                },
            },
        },
    )
