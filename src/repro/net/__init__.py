"""Network substrate: protocol costs, fabric, and FPGA offload."""

from .. import _lazy

_EXPORTS = {
    "DEFAULT_ZONE_LATENCY": ".fabric",
    "NetworkFabric": ".fabric",
    "TransferTiming": ".fabric",
    "FpgaOffload": ".fpga",
    "VirtualClockNic": ".nic",
    "HTTP_COSTS": ".protocols",
    "IPC_COSTS": ".protocols",
    "RPC_COSTS": ".protocols",
    "ProtocolCosts": ".protocols",
    "costs_for": ".protocols",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
