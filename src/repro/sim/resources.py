"""The shared-resource primitive for the DES engine.

:class:`Resource` is ``capacity`` identical servers with a FIFO wait
queue (an M/G/c service station when driven by random arrivals).
Requests are events that processes ``yield``, and context managers so
handlers can write::

    with cpu.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending or granted claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._released = False

    def release(self) -> None:
        """Return the claimed unit (idempotent)."""
        if not self._released:
            self._released = True
            self.resource._release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently claimed."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self.queue)

    @property
    def utilization(self) -> float:
        """Instantaneous busy fraction, in ``[0, 1]``."""
        return len(self.users) / self.capacity

    def request(self) -> Request:
        """Claim one unit; the returned event triggers when granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def _release(self, req: Request) -> None:
        if req in self.users:
            self.users.remove(req)
        else:
            # Released while still queued: withdraw the claim.
            try:
                self.queue.remove(req)
            except ValueError:
                pass
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt._released:
                continue
            self.users.append(nxt)
            nxt.succeed()

