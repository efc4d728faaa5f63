"""Spans and traces.

The paper's methodology hinges on a Dapper/Zipkin-style tracing system
(Sec. 3.7): every RPC is timestamped on arrival and departure at each
microservice, spans are stitched into an end-to-end trace, and the time
spent on network processing is tracked separately from application
computation.  This module is the exact simulation analogue: the runtime
produces one :class:`Span` per RPC, nested into a tree rooted at the
entry tier.

A collector keeps every finished span tree, so a span's size is the
simulator's memory cost at scale.  Both classes are slotted, and a span
starts with one shared empty ``children`` tuple and one shared read-only
empty ``annotations`` mapping; :meth:`Span.add_child`,
:meth:`Span.add_children` and :meth:`Span.annotate` give a span its own
list or dict on its first write, so only the spans that need one pay
for it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence

__all__ = ["Span", "Trace"]

#: The ``children`` of every span without any: one shared empty tuple.
_NO_CHILDREN: Sequence["Span"] = ()
#: The ``annotations`` of every span without any: one shared read-only
#: empty mapping, so a write that bypasses :meth:`Span.annotate` raises
#: ``TypeError`` instead of tagging every span at once.
_NO_ANNOTATIONS: Mapping[str, object] = MappingProxyType({})


class Span:
    """One RPC's server-side record.

    * ``app_time``: wall time this tier spent on application compute.
    * ``net_time``: wall time on network processing (TCP kernel work,
      NIC, wire) for this tier's request and response messages.
    * ``net_process_time``: the processing-only part of ``net_time``:
      host TCP CPU time (or FPGA offload latency), excluding wire
      propagation and NIC serialization.  This is what the Fig. 16
      accelerator removes.
    * ``block_time``: wall time queued for a worker slot / blocked on a
      connection.
    * ``status``: terminal state of the RPC: ``ok``, ``timeout``,
      ``error``, ``deadline``, ``open`` (circuit breaker), or ``shed``
      (see :mod:`repro.resilience.status`).
    * ``retries``: retries the *caller* spent on this call before this
      outcome (0 = first attempt succeeded or no retry policy).
    * ``children``: downstream RPCs in dispatch order; append with
      :meth:`add_child` / :meth:`add_children`.
    * ``annotations``: free-form key/value marks added after the fact by
      layers above the runtime (the geo front door tags failed-over
      requests with ``home_region`` / ``served_region`` /
      ``stale_read``); exported as ``repro.<key>`` OTLP attributes.
      Empty on the hot path; set with :meth:`annotate`.
    """

    __slots__ = ("service", "operation", "start", "end", "app_time",
                 "net_time", "net_process_time", "block_time", "status",
                 "retries", "children", "annotations")

    def __init__(self, service: str, operation: str, start: float,
                 end: float = 0.0, app_time: float = 0.0,
                 net_time: float = 0.0, net_process_time: float = 0.0,
                 block_time: float = 0.0, status: str = "ok",
                 retries: int = 0,
                 children: Sequence["Span"] = _NO_CHILDREN,
                 annotations: Mapping[str, object] = _NO_ANNOTATIONS):
        self.service = service
        self.operation = operation
        self.start = start
        self.end = end
        self.app_time = app_time
        self.net_time = net_time
        self.net_process_time = net_process_time
        self.block_time = block_time
        self.status = status
        self.retries = retries
        self.children = children
        self.annotations = annotations

    def add_child(self, child: "Span") -> None:
        """Append ``child``; the first gives this span its own list."""
        if self.children is _NO_CHILDREN:
            self.children = [child]
        else:
            self.children.append(child)

    def add_children(self, children: Iterable["Span"]) -> None:
        """Append ``children`` in order (see :meth:`add_child`)."""
        if self.children is _NO_CHILDREN:
            self.children = list(children)
        else:
            self.children.extend(children)

    def annotate(self, key: str, value: object) -> None:
        """Set annotation ``key``; the first gives this span its own
        dict, so annotations keep their insertion order."""
        if self.annotations is _NO_ANNOTATIONS:
            self.annotations = {key: value}
        else:
            self.annotations[key] = value

    @property
    def ok(self) -> bool:
        """True when the RPC completed successfully."""
        return self.status == "ok"

    @property
    def duration(self) -> float:
        """Total wall time of the RPC (request arrival to response)."""
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, preorder.

        An explicit stack rather than nested generators, so a deep tree
        costs one frame instead of one per level."""
        stack = [self]
        pop = stack.pop
        while stack:
            span = pop()
            yield span
            children = span.children
            if children:
                stack.extend(reversed(children))

    def exclusive_time(self) -> float:
        """Duration not attributable to downstream RPCs.

        Children issued in parallel overlap, so we subtract the union of
        child intervals rather than the sum of child durations."""
        if not self.children:
            return self.duration
        intervals = sorted((c.start, c.end) for c in self.children)
        covered = 0.0
        cur_start, cur_end = intervals[0]
        for s, e in intervals[1:]:
            if s > cur_end:
                covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        covered += cur_end - cur_start
        return max(0.0, self.duration - covered)


class Trace:
    """One end-to-end request: an operation name plus its span tree."""

    __slots__ = ("operation", "root", "user")

    def __init__(self, operation: str, root: Span,
                 user: Optional[int] = None):
        self.operation = operation
        self.root = root
        self.user = user

    @property
    def latency(self) -> float:
        """End-to-end latency in seconds."""
        return self.root.duration

    @property
    def status(self) -> str:
        """Terminal state of the end-to-end request (the root's)."""
        return self.root.status

    @property
    def ok(self) -> bool:
        """True when the request completed successfully."""
        return self.root.status == "ok"

    def retry_count(self) -> int:
        """Total retries spent anywhere in this request's call tree."""
        return sum(span.retries for span in self.root.walk())

    @property
    def start(self) -> float:
        return self.root.start

    def spans(self) -> List[Span]:
        """All spans, preorder."""
        return list(self.root.walk())

    def services(self) -> List[str]:
        """All services touched, preorder with repeats."""
        return [span.service for span in self.root.walk()]

    def critical_path(self) -> List[Span]:
        """The chain of spans bounding end-to-end latency.

        Follows, at each node, the child whose completion is latest —
        the path an engineer would chase when debugging tail latency."""
        path = []
        span = self.root
        while True:
            path.append(span)
            if not span.children:
                return path
            span = max(span.children, key=lambda c: c.end)
