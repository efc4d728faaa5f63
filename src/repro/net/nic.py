"""A NIC queue as a virtual-clock FIFO server.

A NIC serializes one message at a time, first come first served, and a
message of ``size`` KB occupies it for exactly ``size / bandwidth``
seconds.  For FIFO with deterministic service the whole queue reduces
to one number, the instant the link next falls idle::

    finish = max(now, free_at) + service
    free_at = finish

so reserving a slot is a constant-time calculation with no grant event,
no release and no process blocked on a queue: the caller waits once,
until ``finish``.  The finish times are exactly those of a
capacity-1 :class:`~repro.sim.resources.Resource` served in arrival
order (``tests/test_net.py`` checks the two against each other).

A deque of pending finish times keeps the occupancy observable: the
``repro_nic_queue_depth`` gauge reads :attr:`VirtualClockNic.depth`,
messages queued plus the one in service, as it did when the NIC was a
``Resource``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..sim.engine import Environment

__all__ = ["VirtualClockNic"]


class VirtualClockNic:
    """One direction of a machine's NIC: a FIFO, deterministic-service
    queue kept as a virtual clock."""

    __slots__ = ("env", "free_at", "_finishes")

    def __init__(self, env: Environment):
        self.env = env
        #: The instant the NIC finishes everything reserved so far.
        self.free_at = env.now
        self._finishes: Deque[float] = deque()

    def reserve(self, service: float) -> float:
        """Queue a message needing ``service`` seconds of the wire at
        the current instant; returns the instant it finishes."""
        now = self.env.now
        free_at = self.free_at
        finish = (free_at if free_at > now else now) + service
        self.free_at = finish
        finishes = self._finishes
        while finishes and finishes[0] <= now:
            finishes.popleft()
        finishes.append(finish)
        return finish

    @property
    def depth(self) -> int:
        """Messages queued or in service right now."""
        now = self.env.now
        finishes = self._finishes
        while finishes and finishes[0] <= now:
            finishes.popleft()
        return len(finishes)
