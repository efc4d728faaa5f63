"""Discrete-event simulation substrate.

The engine (:mod:`repro.sim.engine`), shared resources
(:mod:`repro.sim.resources`), the processor-sharing CPU model
(:mod:`repro.sim.ps`), and deterministic random streams
(:mod:`repro.sim.rng`).
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .ps import ProcessorSharingServer
from .resources import Request, Resource
from .rng import RandomStreams, ZipfSampler

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ProcessorSharingServer",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "Timeout",
    "ZipfSampler",
]
