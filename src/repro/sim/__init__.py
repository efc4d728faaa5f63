"""Discrete-event simulation substrate.

The engine (:mod:`repro.sim.engine`), shared resources
(:mod:`repro.sim.resources`), the processor-sharing CPU model
(:mod:`repro.sim.ps`), and deterministic random streams
(:mod:`repro.sim.rng`).
"""

from .. import _lazy

_EXPORTS = {
    "AllOf": ".engine",
    "AnyOf": ".engine",
    "Environment": ".engine",
    "Event": ".engine",
    "Interrupt": ".engine",
    "Process": ".engine",
    "SimulationError": ".engine",
    "Timeout": ".engine",
    "ProcessorSharingServer": ".ps",
    "Request": ".resources",
    "Resource": ".resources",
    "RandomStreams": ".rng",
    "ZipfSampler": ".rng",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
