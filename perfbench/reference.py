"""A fixed pure-Python reference kernel that measures the host's speed.

On a shared VM the host's speed drifts by tens of percent over tens of
seconds, and CPU time drifts with it.  ``run.py`` therefore runs this
kernel in short chunks interleaved with slices of the simulation, in
the same process, and scales the simulation's CPU time by how long the
kernel took next to it.  Drift slower than one slice then cancels out.

The kernel is a miniature discrete-event simulation written like the
simulator: a ``heapq`` event queue, generator processes, per-service
dict state, random service times and a small span object per visit.
It lives in the benchmark's own files and never imports ``repro``, so
a change to the simulator moves the simulation's CPU time and not the
kernel's.  Do not edit it: a change would rescale every result.
"""

from __future__ import annotations

import heapq
import random

#: Requests per chunk.
CHUNK_REQUESTS = 2400

#: What ``chunk()`` returns; anything else means the kernel changed.
CHECKSUM = 16816689

#: Median CPU seconds of one chunk on the VM the README describes.
#: Scaled results are expressed in CPU seconds of that host.
NOMINAL_CHUNK_S = 0.0225

_SERVICES = tuple(f"svc-{i}" for i in range(12))


class _Span:
    def __init__(self, service, start):
        self.service = service
        self.start = start
        self.end = None
        self.children = []


def chunk(seed: int = 7) -> int:
    """Run one chunk and return its checksum (the same on every call)."""
    rng = random.Random(seed)
    heap = []
    seq = 0
    now = 0.0
    busy = dict.fromkeys(_SERVICES, 0.0)
    served = dict.fromkeys(_SERVICES, 0)
    done = []

    def request(rid):
        root = _Span("frontend", now)
        hops = 3 + rid % 5
        for _ in range(hops):
            name = _SERVICES[rng.randrange(len(_SERVICES))]
            span = _Span(name, now)
            root.children.append(span)
            work = rng.expovariate(1000.0)
            start = max(now, busy[name])
            busy[name] = start + work
            served[name] += 1
            yield start + work - now
            span.end = now
        root.end = now
        done.append(root)

    for rid in range(CHUNK_REQUESTS):
        proc = request(rid)
        seq += 1
        heapq.heappush(heap, (rid * 0.002, seq, proc))
    while heap:
        now, _seq, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))
    spans = sum(len(root.children) for root in done)
    return spans * 1000 + sum(served.values()) + int(now * 1e6)
