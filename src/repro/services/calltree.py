"""Request call trees.

An end-to-end operation (e.g. ``composePost``) is a tree of RPC calls:
each node names the service that handles it, how much of that service's
base CPU cost this operation incurs, the request/response payload sizes,
and the downstream calls it makes.  Downstream calls are organized as
*sequential groups of parallel calls*: groups execute in order, and all
calls within a group are issued concurrently — enough structure to
express every dependency pattern in Figs. 4-8 (fan-out to caches,
serialized login-then-pay chains, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

__all__ = ["CallNode", "seq", "par"]


@dataclass
class CallNode:
    """One RPC in an operation's call tree."""

    service: str
    work_scale: float = 1.0
    request_kb: float = 1.0
    response_kb: float = 2.0
    pre_fraction: float = 0.5
    groups: List[List["CallNode"]] = field(default_factory=list)

    def __post_init__(self):
        if self.work_scale < 0:
            raise ValueError("work_scale must be >= 0")
        if self.request_kb < 0 or self.response_kb < 0:
            raise ValueError("payload sizes must be >= 0")
        if not 0.0 <= self.pre_fraction <= 1.0:
            raise ValueError("pre_fraction must be in [0,1]")
        for group in self.groups:
            if not group:
                raise ValueError("empty parallel group")

    # -- tree utilities --------------------------------------------------
    def walk(self) -> Iterator["CallNode"]:
        """Yield this node and every descendant, preorder."""
        yield self
        for group in self.groups:
            for child in group:
                yield from child.walk()

    def services(self) -> List[str]:
        """All service names in the tree, in preorder (with repeats)."""
        return [node.service for node in self.walk()]

    def depth(self) -> int:
        """Longest service chain from this node to a leaf (>= 1)."""
        if not self.groups:
            return 1
        return 1 + max(child.depth()
                       for group in self.groups for child in group)

    def call_count(self) -> int:
        """Total number of RPCs in the tree (including this node)."""
        return sum(1 for _ in self.walk())


def seq(*nodes: CallNode) -> List[List[CallNode]]:
    """Groups for strictly sequential calls: one call per group."""
    return [[node] for node in nodes]


def par(*nodes: CallNode) -> List[List[CallNode]]:
    """A single group with all calls issued in parallel."""
    return [list(nodes)] if nodes else []
