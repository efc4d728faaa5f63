"""Tests for the parametric topology generator.

Determinism is the generator's core contract: the same (pattern, size,
seed) triple must yield byte-identical topology JSON and byte-identical
same-seed simulation artifacts, and every topology in the envelope must
pass the registration-time validators clean — the scenario matrix and
the scale benchmarks build on nothing else.
"""

import pytest

from repro.analysis_static import validate_app
from repro.analysis_static.rules import Severity
from repro.analysis_static.synthcheck import PATTERNS
from repro.analysis_static.topology import TopologyError
from repro.apps import build_app
from repro.apps.synth import (GeneratorParams, generate, parse_spec,
                              topology_json)
from repro.core.experiment import simulate
from repro.obs import traces_to_otlp_json
from repro.resilience.criticality import CRITICALITIES
from repro.services.definition import ServiceKind


class TestDeterminism:
    def test_same_triple_yields_byte_identical_topology(self):
        for pattern in PATTERNS:
            params = GeneratorParams(pattern=pattern, size=24, seed=7)
            first = topology_json(generate(params))
            second = topology_json(generate(params))
            assert first == second, pattern

    def test_different_seed_changes_the_mesh(self):
        a = topology_json(generate(
            GeneratorParams(pattern="mesh", size=24, seed=1)))
        b = topology_json(generate(
            GeneratorParams(pattern="mesh", size=24, seed=2)))
        assert a != b

    def test_same_seed_simulation_artifacts_are_byte_identical(self):
        def run():
            app = build_app("synth:mesh:n12:seed5")
            result = simulate(app, qps=40, duration=5, n_machines=3,
                              seed=3)
            return traces_to_otlp_json(result.collector.traces)

        assert run() == run()


class TestEnvelope:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("size", [8, 32, 128])
    def test_every_generated_topology_lints_clean(self, pattern, size):
        app = generate(GeneratorParams(pattern=pattern, size=size,
                                       seed=3))
        errors = [f for f in validate_app(app)
                  if f.severity == Severity.ERROR]
        assert errors == []
        assert len(app.services) == size

    @pytest.mark.parametrize("bad", [
        dict(pattern="ring"),
        dict(size=2),
        dict(size=5000),
        dict(fanout=0),
        dict(fanout=100),
        dict(edge_probability=0.0),
        dict(edge_probability=1.5),
        dict(datastore_fraction=-0.1),
        dict(work_cv=9.0),
        dict(logic_work_us=(0.0, 10.0)),
        dict(db_work_us=(300.0, 100.0)),
        dict(request_kb=0.0),
        dict(variants=0),
    ])
    def test_out_of_envelope_params_raise_syn001(self, bad):
        params = GeneratorParams(
            **{**dict(pattern="tree", size=8), **bad})
        with pytest.raises(TopologyError) as err:
            generate(params)
        assert all(f.code == "SYN001" for f in err.value.findings)


class TestShapes:
    def test_chain_is_a_single_path(self):
        app = generate(GeneratorParams(pattern="chain", size=8, seed=1))
        root = next(iter(app.operations.values())).root
        depth = 0
        node = root
        while node.groups:
            assert len(node.groups) == 1 and len(node.groups[0]) == 1
            node = node.groups[0][0]
            depth += 1
        assert depth == 7

    def test_fanout_dispatches_all_children_in_parallel(self):
        app = generate(GeneratorParams(pattern="fanout", size=9,
                                       seed=1))
        root = next(iter(app.operations.values())).root
        assert len(root.groups) == 1
        assert len(root.groups[0]) == 8

    def test_mesh_reuses_shared_downstreams(self):
        app = generate(GeneratorParams(pattern="mesh", size=32, seed=7))
        op = next(op for op in app.operations.values()
                  if op.name.endswith("-read"))
        visits = [node.service for node in op.root.walk()]
        assert len(visits) > len(set(visits))

    def test_ptree_variants_prune_the_full_tree(self):
        app = generate(GeneratorParams(pattern="ptree", size=32,
                                       seed=3, variants=3))
        sizes = {name: sum(1 for _ in op.root.walk())
                 for name, op in app.operations.items()}
        full = sizes["ptree-full"]
        assert any(count < full for name, count in sizes.items()
                   if name != "ptree-full")


class TestApplicationDressing:
    def test_operations_span_criticality_tiers(self):
        app = generate(GeneratorParams(pattern="tree", size=16, seed=1))
        crits = {op.criticality for op in app.operations.values()}
        assert len(crits) >= 2
        assert crits <= set(CRITICALITIES)

    def test_cache_leaves_get_stale_cache_policies(self):
        app = generate(GeneratorParams(pattern="tree", size=32, seed=1,
                                       datastore_fraction=0.8))
        caches = {name for name, svc in app.services.items()
                  if svc.kind == ServiceKind.CACHE}
        assert caches
        covered = {p.service
                   for p in app.degradation_policies.values()
                   if p.fallback == "stale_cache"}
        assert caches <= covered

    def test_metadata_records_the_parameters(self):
        app = generate(GeneratorParams(pattern="mesh", size=12, seed=9))
        synth = app.metadata["synth"]
        assert synth["pattern"] == "mesh"
        assert synth["size"] == 12
        assert synth["seed"] == 9


class TestSpecNames:
    def test_spec_roundtrip(self):
        params = GeneratorParams(pattern="mesh", size=32, seed=7)
        assert params.name == "synth:mesh:n32:seed7"
        parsed = parse_spec(params.name)
        assert (parsed.pattern, parsed.size, parsed.seed) == \
            ("mesh", 32, 7)

    @pytest.mark.parametrize("spec", [
        "synth:mesh", "synth:mesh:32:7", "mesh:n32:seed7",
        "synth:mesh:n32:seed", "synth::n32:seed7",
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)

    def test_build_app_resolves_specs(self):
        app = build_app("synth:branch:n16:seed2")
        assert app.name == "synth:branch:n16:seed2"
        assert len(app.services) == 16
