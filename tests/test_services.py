"""Tests for service definitions, call trees, applications, monoliths."""

import pytest

from repro.services import (
    Application,
    CallNode,
    MONOLITH_SERVICE_NAME,
    Operation,
    Protocol,
    ServiceDefinition,
    ServiceKind,
    monolithify,
    par,
    seq,
)
from repro.services.datastores import memcached, mongodb, nginx


# -- definitions -----------------------------------------------------------

def test_definition_defaults_traits_from_language():
    svc = ServiceDefinition(name="x", language="java")
    assert svc.traits is not None
    assert svc.traits.icache_footprint_kb == 110


def test_definition_validation():
    with pytest.raises(ValueError):
        ServiceDefinition(name="")
    with pytest.raises(ValueError):
        ServiceDefinition(name="x", kind="mainframe")
    with pytest.raises(ValueError):
        ServiceDefinition(name="x", work_mean=-1.0)
    with pytest.raises(ValueError):
        ServiceDefinition(name="x", freq_sensitivity=2.0)
    with pytest.raises(ValueError):
        ServiceDefinition(name="x", language="cobol")
    with pytest.raises(ValueError):
        ServiceDefinition(name="x", max_workers=0)


def test_with_traits_and_scaled():
    svc = ServiceDefinition(name="x", work_mean=1e-4)
    bigger = svc.with_traits(icache_footprint_kb=500)
    assert bigger.traits.icache_footprint_kb == 500
    assert svc.traits.icache_footprint_kb != 500
    doubled = svc.scaled(2.0)
    assert doubled.work_mean == pytest.approx(2e-4)
    with pytest.raises(ValueError):
        svc.scaled(-1.0)


# -- call trees -----------------------------------------------------------

def sample_tree():
    return CallNode(service="a", groups=[
        [CallNode(service="b"), CallNode(service="c")],
        [CallNode(service="d", groups=seq(CallNode(service="b")))],
    ])


def test_walk_preorder():
    assert [n.service for n in sample_tree().walk()] == \
        ["a", "b", "c", "d", "b"]


def test_depth_and_call_count():
    tree = sample_tree()
    assert tree.depth() == 3
    assert tree.call_count() == 5


def test_seq_and_par_builders():
    a, b = CallNode(service="a"), CallNode(service="b")
    assert seq(a, b) == [[a], [b]]
    assert par(a, b) == [[a, b]]
    assert par() == []


def test_node_validation():
    with pytest.raises(ValueError):
        CallNode(service="a", work_scale=-1)
    with pytest.raises(ValueError):
        CallNode(service="a", pre_fraction=1.5)
    with pytest.raises(ValueError):
        CallNode(service="a", groups=[[]])


# -- applications ------------------------------------------------------------

def make_app(**overrides):
    services = {
        "front": nginx("front"),
        "cache": memcached("cache"),
        "db": mongodb("db"),
    }
    root = CallNode(service="front", groups=seq(
        CallNode(service="cache",
                 groups=seq(CallNode(service="db", work_scale=0.3)))))
    kwargs = dict(
        name="tiny", services=services,
        operations={"get": Operation(name="get", root=root)},
        qos_latency=0.01)
    kwargs.update(overrides)
    return Application(**kwargs)


def test_application_validates_call_targets():
    bad_root = CallNode(service="front", groups=seq(
        CallNode(service="ghost")))
    with pytest.raises(ValueError, match="ghost"):
        make_app(operations={"bad": Operation(name="bad", root=bad_root)})


def test_application_validates_shards_zones_entry():
    with pytest.raises(ValueError):
        make_app(sharded_services=["ghost"])
    with pytest.raises(ValueError):
        make_app(service_zones={"ghost": "edge"})
    with pytest.raises(ValueError):
        make_app(entry_service="ghost")
    with pytest.raises(ValueError):
        make_app(protocol="carrier-pigeon")


def test_default_mix_normalizes():
    app = make_app(operations={
        "a": Operation(name="a", root=CallNode(service="front"), weight=3),
        "b": Operation(name="b", root=CallNode(service="front"), weight=1),
    })
    mix = app.default_mix()
    assert mix == {"a": 0.75, "b": 0.25}


def test_operation_work_sums_tree():
    app = make_app()
    expected = (app.services["front"].work_mean
                + app.services["cache"].work_mean
                + 0.3 * app.services["db"].work_mean)
    assert app.operation_work("get") == pytest.approx(expected)


def test_language_breakdown_and_datastores():
    app = make_app()
    langs = app.language_breakdown()
    assert langs["c"] == pytest.approx(2 / 3)  # nginx + memcached
    assert set(app.datastore_services()) == {"cache", "db"}


def test_zone_of_defaults_to_cloud():
    app = make_app(service_zones={"front": "edge"})
    assert app.zone_of("front") == "edge"
    assert app.zone_of("db") == "cloud"


# -- monolith ------------------------------------------------------------

def test_monolith_collapses_logic_keeps_backends():
    app = make_app()
    mono = monolithify(app)
    assert MONOLITH_SERVICE_NAME in mono.services
    assert "cache" in mono.services and "db" in mono.services
    assert "front" not in mono.services
    root = mono.operations["get"].root
    assert root.service == MONOLITH_SERVICE_NAME
    called = {n.service for n in root.walk()} - {MONOLITH_SERVICE_NAME}
    assert called == {"cache", "db"}


def test_monolith_work_conserved_modulo_efficiency():
    app = make_app()
    mono = monolithify(app)
    logic_work = app.services["front"].work_mean
    assert mono.operation_work("get") == pytest.approx(
        0.9 * logic_work
        + app.services["cache"].work_mean
        + 0.3 * app.services["db"].work_mean)


def test_monolith_uses_http_and_has_big_footprint():
    mono = monolithify(make_app())
    assert mono.protocol == Protocol.HTTP
    traits = mono.services[MONOLITH_SERVICE_NAME].traits
    assert traits.icache_footprint_kb >= 500
    assert mono.metadata["monolith_of"] == "tiny"


def test_monolith_preserves_parallel_structure_of_backends():
    services = {
        "front": nginx("front"),
        "c1": memcached("c1"),
        "c2": memcached("c2"),
        "logic": ServiceDefinition(name="logic", kind=ServiceKind.LOGIC),
    }
    root = CallNode(service="front", groups=[
        [CallNode(service="c1"), CallNode(service="c2")],
        [CallNode(service="logic")],
    ])
    app = Application(name="p", services=services,
                      operations={"op": Operation(name="op", root=root)},
                      qos_latency=0.01)
    mono = monolithify(app)
    groups = mono.operations["op"].root.groups
    assert len(groups) == 1
    assert {n.service for n in groups[0]} == {"c1", "c2"}
