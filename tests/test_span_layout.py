"""The stored span layout: slotted records with shared empty containers.

A collector keeps every finished span tree, so bytes per span are the
simulator's memory cost at scale.  ``Span`` and ``Trace`` carry no
``__dict__``; a span without children or annotations points at one
shared empty tuple and one shared read-only empty mapping, and the
writer methods give it its own list or dict on the first write.
"""

import gc
import sys
import tracemalloc
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import build_app
from repro.core.experiment import simulate
from repro.tracing.span import Span, Trace

#: Stored bytes per span allowed on the mesh64 scale probe (a span with
#: a ``__dict__``, a list and a dict cost 378-490 B on Python 3.10-3.12).
MAX_BYTES_PER_SPAN = 250


def _leaf(service: str = "a", start: float = 0.0) -> Span:
    return Span(service=service, operation="op", start=start,
                end=start + 1.0)


def recursive_preorder(span: Span) -> Iterator[Span]:
    """The nested-generator walk ``Span.walk`` replaced."""
    yield span
    for child in span.children:
        yield from recursive_preorder(child)


def test_span_and_trace_have_no_instance_dict():
    span = _leaf()
    trace = Trace(operation="op", root=span)
    for record in (span, trace):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.no_such_field = 1


def test_leaf_spans_share_the_empty_containers():
    first, second = _leaf("a"), _leaf("b")
    assert first.children == () and not first.annotations
    assert first.children is second.children
    assert first.annotations is second.annotations


def test_a_write_past_annotate_raises_instead_of_tagging_every_span():
    span = _leaf()
    with pytest.raises(TypeError):
        span.annotations["stale_read"] = True
    assert not _leaf().annotations


def test_writers_change_only_their_own_span_in_insertion_order():
    parent, sibling = _leaf("p"), _leaf("s")
    kids = [_leaf(name) for name in "xyz"]
    parent.add_child(kids[0])
    parent.add_children(kids[1:])
    parent.annotate("zeta", 1)
    parent.annotate("alpha", 2)
    parent.annotate("zeta", 3)
    assert [c.service for c in parent.children] == ["x", "y", "z"]
    assert list(parent.annotations.items()) == [("zeta", 3), ("alpha", 2)]
    assert sibling.children == () and not sibling.annotations
    assert all(k.children == () and not k.annotations for k in kids)


@st.composite
def span_trees(draw, depth: int = 0) -> Span:
    """Random trees built through both child writers."""
    span = _leaf(draw(st.sampled_from("abcdef")),
                 start=draw(st.floats(0.0, 100.0)))
    if depth < 4:
        kids = draw(st.lists(span_trees(depth=depth + 1), max_size=3))
        if draw(st.booleans()):
            span.add_children(kids)
        else:
            for kid in kids:
                span.add_child(kid)
    return span


@settings(max_examples=100, deadline=None)
@given(root=span_trees())
def test_walk_is_the_recursive_preorder(root):
    expected = list(recursive_preorder(root))
    assert [id(s) for s in root.walk()] == [id(s) for s in expected]
    trace = Trace(operation="op", root=root)
    assert trace.services() == [s.service for s in expected]


def test_stored_span_bytes_on_the_mesh64_probe():
    """Bytes freed by clearing a seeded 1 s mesh64 run's stored traces
    while the rest of the run stays alive, per stored span: what keeping
    the traces costs.  The floor is one bare span object, so the
    measurement cannot pass by missing the spans altogether."""
    app = build_app("synth:mesh:n64:seed3")
    tracemalloc.start()
    try:
        result = simulate(app, qps=80, duration=1.0, n_machines=8, seed=1)
        traces = result.collector.traces
        assert result.collector.dropped_traces == 0
        spans = sum(1 for trace in traces for _ in trace.root.walk())
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        traces.clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spans > 10_000
    per_span = freed / spans
    assert sys.getsizeof(_leaf()) <= per_span <= MAX_BYTES_PER_SPAN, per_span
