"""Network substrate: protocol costs, fabric, and FPGA offload."""

from .fabric import DEFAULT_ZONE_LATENCY, NetworkFabric, TransferTiming
from .fpga import FpgaOffload
from .nic import VirtualClockNic
from .protocols import (
    HTTP_COSTS,
    IPC_COSTS,
    RPC_COSTS,
    ProtocolCosts,
    costs_for,
)

__all__ = [
    "DEFAULT_ZONE_LATENCY",
    "FpgaOffload",
    "HTTP_COSTS",
    "IPC_COSTS",
    "NetworkFabric",
    "ProtocolCosts",
    "RPC_COSTS",
    "TransferTiming",
    "VirtualClockNic",
    "costs_for",
]
