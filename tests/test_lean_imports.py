"""What a run imports.

``import repro`` loads no subpackage, and no package loads a submodule
until one of its names is first used; ``build_app`` imports only the
app it builds.  numpy loads at the first quantile or mean, so a
simulation plus both exports never pays for it, and neither do
``repro --help`` or ``repro lint``.  The import checks run in a fresh
interpreter, because this one already holds everything.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")
REPRO = Path(repro.__file__).parent

#: Subpackages a plain observed run never executes.
UNUSED_BY_A_RUN = ("numpy", "repro.chaos", "repro.predict", "repro.region",
                   "repro.serverless")

#: Modules a plain ``social_network`` run without metrics never executes.
UNUSED_BY_A_PLAIN_RUN = (
    "repro.analytic.budgets", "repro.analytic.cache",
    "repro.apps.banking", "repro.apps.ecommerce", "repro.apps.media_service",
    "repro.apps.swarm", "repro.arch.attribution", "repro.cluster.autoscaler",
    "repro.cluster.depscaler", "repro.cluster.health",
    "repro.cluster.ratelimit", "repro.net.fpga", "repro.obs.instrument",
    "repro.obs.profile", "repro.obs.qos", "repro.resilience.degrade",
    "repro.services.graphviz", "repro.services.monolith",
    "repro.stats.dashboard", "repro.stats.tables", "repro.tracing.analysis",
    "repro.tracing.sampling", "repro.workload.closed_loop")

#: Every package below ``repro``; each resolves its names lazily.
SUBPACKAGES = sorted(
    "repro." + ".".join(init.parent.relative_to(REPRO).parts)
    for init in REPRO.glob("*/**/__init__.py"))


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this checkout's ``src`` on
    the path; returns its stdout, failing on a non-zero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_an_observed_run_loads_no_numpy_until_the_first_quantile():
    out = run_fresh(f"""
        import json, sys
        import repro
        after_import = sorted(m for m in sys.modules
                              if m.startswith("repro."))
        from repro import (MetricsRegistry, build_app, simulate,
                           to_prometheus_text, traces_to_otlp_json)
        result = simulate(build_app("social_network"), qps=40,
                          duration=1.0, n_machines=4, seed=1,
                          metrics=MetricsRegistry())
        traces_to_otlp_json(result.collector.traces)
        to_prometheus_text(result.metrics, now=result.deployment.env.now)
        loaded = [m for m in {UNUSED_BY_A_RUN!r} if m in sys.modules]

        from repro.stats.percentiles import percentile
        durations = [trace.root.duration
                     for trace in result.collector.traces]
        p99 = percentile(durations, 0.99)
        numpy_after_percentile = "numpy" in sys.modules
        import numpy as np
        print(json.dumps({{
            "after_import": after_import,
            "loaded": loaded,
            "traces": len(durations),
            "numpy_after_percentile": numpy_after_percentile,
            "exact": p99 == float(np.quantile(
                np.asarray(durations, dtype=float), 0.99)),
        }}))
    """)
    report = json.loads(out)
    assert report["after_import"] == []
    assert report["loaded"] == []
    assert report["traces"] > 0
    assert report["numpy_after_percentile"]
    assert report["exact"]


def test_help_and_lint_run_without_numpy():
    """numpy blocked outright: importing it raises ImportError."""
    run_fresh("""
        import contextlib, io, sys
        sys.modules["numpy"] = None
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["--help"], ["lint", "--explain"], ["lint"]):
                try:
                    main(argv)
                except SystemExit as exc:
                    assert exc.code == 0, (argv, exc.code)
    """)


@pytest.mark.parametrize("name", [n for n in repro.__all__
                                  if n != "__version__"])
def test_each_top_level_name_is_its_defining_module_object(name):
    value = getattr(repro, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_dir_lists_every_exported_name():
    assert set(repro.__all__) <= set(dir(repro))
    assert "__all__" in dir(repro)


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'repro'.*'no_such_name'"):
        repro.no_such_name
    assert not hasattr(repro, "no_such_name")


def test_a_run_loads_only_the_analyzers_app_building_uses():
    """``build_app`` validates the topology (``rules``, ``topology``);
    the AST linter and the flow, policy and synth analyzers stay out."""
    out = run_fresh("""
        import json, sys
        from repro.apps.registry import build_app
        from repro.core.experiment import simulate
        simulate(build_app("social_network"), qps=40, duration=0.5,
                 n_machines=4, seed=1)
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro.analysis_static."))))
    """)
    assert json.loads(out) == ["repro.analysis_static.rules",
                               "repro.analysis_static.topology"]


def test_a_non_lint_command_loads_no_linter():
    """Every command's parser carries the ``lint`` flags, but only
    ``repro lint`` loads the AST linter and the report formatters."""
    out = run_fresh("""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            main(["list"])
        print(json.dumps([m for m in ("repro.analysis_static.simlint",
                                      "repro.analysis_static.report")
                          if m in sys.modules]))
    """)
    assert json.loads(out) == []


def test_analytic_provisioning_loads_no_simulator():
    out = run_fresh("""
        import json, sys
        from repro.core.provisioning import balanced_provision
        from repro.core.qos import QoSTarget
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro.core."))))
    """)
    assert json.loads(out) == ["repro.core.provisioning", "repro.core.qos"]


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_lazy_subpackage_names_resolve_to_their_defining_objects(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(module._EXPORTS)
    for name in module.__all__:
        defining = importlib.import_module(module._EXPORTS[name], package)
        assert getattr(module, name) is getattr(defining, name)
        assert name in dir(module)
    namespace = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such'"):
        module.no_such


def test_every_package_is_lazy():
    """Importing any package runs its name table and nothing else."""
    out = run_fresh(f"""
        import importlib, json, sys
        for package in {SUBPACKAGES!r}:
            importlib.import_module(package)
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro"))))
    """)
    assert json.loads(out) == sorted(["repro"] + SUBPACKAGES)


def test_a_plain_run_loads_only_the_modules_it_executes():
    out = run_fresh(f"""
        import json, sys
        from repro import build_app, simulate
        simulate(build_app("social_network"), qps=40, duration=1.0,
                 n_machines=4, seed=1, metrics=None)
        print(json.dumps([m for m in {UNUSED_BY_A_PLAIN_RUN!r}
                          if m in sys.modules]))
    """)
    assert json.loads(out) == []


def test_a_synth_build_loads_only_the_generator():
    out = run_fresh("""
        import json, sys
        from repro import build_app
        build_app("synth:mesh:n64:seed3")
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro.apps."))))
    """)
    assert json.loads(out) == ["repro.apps.registry", "repro.apps.synth",
                               "repro.apps.synth.generator"]


@pytest.mark.parametrize("armed", [False, True],
                         ids=["plain", "policies-and-faults"])
def test_no_module_is_first_imported_inside_the_timed_stretches(armed):
    """``env.run`` and the two exports are what ``perfbench`` times; an
    import there would be billed to the simulation.  Every optional
    feature imports its module while it is armed, before the run."""
    out = run_fresh(f"""
        import json, sys
        from repro import (BreakerConfig, LoadShedder, MetricsRegistry,
                           ResiliencePolicy, build_app, simulate,
                           to_prometheus_text, traces_to_otlp_json)
        kwargs = {{}}
        if {armed!r}:
            kwargs = dict(
                default_policy=ResiliencePolicy(
                    rpc_timeout=0.02, max_retries=2, backoff_base=0.01,
                    retry_budget_ratio=0.2,
                    breaker=BreakerConfig(window=20, min_volume=10,
                                          reset_timeout=0.25)),
                shedder=LoadShedder(3),
                setup=lambda dep: dep.slow_down_service("readPost", 115.0))
        result = simulate(build_app("social_network"), qps=80,
                          duration=1.0, n_machines=6, seed=1,
                          metrics=MetricsRegistry(), run_env=False,
                          **kwargs)
        env = result.deployment.env

        def loaded():
            return {{m for m in sys.modules if m.startswith("repro")}}

        before = loaded()
        env.run(until=1.5)
        during_run = sorted(loaded() - before)
        before = loaded()
        traces_to_otlp_json(result.collector.traces)
        to_prometheus_text(result.metrics, now=env.now)
        print(json.dumps({{
            "run": during_run, "export": sorted(loaded() - before),
            "timeouts": result.deployment.resilience_stats["timeouts"]}}))
    """)
    report = json.loads(out)
    assert report["run"] == [] and report["export"] == []
    assert (report["timeouts"] > 0) == armed
