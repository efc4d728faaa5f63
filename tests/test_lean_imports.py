"""What a run imports.

``import repro`` loads no subpackage: each top-level name imports its
submodule on first access.  numpy loads at the first quantile or mean,
so a simulation plus both exports never pays for it, and neither do
``repro --help`` or ``repro lint``.  The import checks run in a fresh
interpreter, because this one already holds everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Subpackages a plain observed run never executes.
UNUSED_BY_A_RUN = ("numpy", "repro.chaos", "repro.predict", "repro.region",
                   "repro.serverless")


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
