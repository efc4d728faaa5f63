"""Tests of the benchmark's own code: metric names, tracer transparency
and a short smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.add_source_path(ROOT)

import run as runner  # noqa: E402
from tracer import LAYERS, LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def shortened(name, duration):
    return dataclasses.replace(workloads.WORKLOADS[name], duration=duration)


def test_metric_names_are_well_formed_and_match_the_spec():
    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    assert set(names) == set(workloads.WORKLOADS)
    for section, table in (("end_to_end", runner.END_TO_END),
                           ("per_layer", runner.PER_LAYER)):
        entries = {m["name"]: m["unit"] for m in declared[section]}
        assert entries == table
        names += list(entries)
        for name, unit in entries.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert len(names) == len(set(names))
    for name in runner.PER_LAYER:
        assert name.split(".")[0] in LAYERS + ("apps", "trace"), name
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_unknown_fault_target_is_refused(tmp_path):
    bad = dataclasses.replace(workloads.WORKLOADS["overload-retry"],
                              slow=(("mongodb-timeline", 6.0),))
    with pytest.raises(ValueError, match="mongodb-timeline"):
        workloads.run_once(bad, 1, tmp_path)


@pytest.mark.parametrize("name", ["social-steady", "overload-retry"])
def test_tracer_reproduces_the_untraced_run(tmp_path, name):
    from repro.sim.engine import Environment
    original = vars(Environment)["run"]
    workload = shortened(name, 3.0)
    plain = workloads.run_once(workload, 5, tmp_path)
    tracer = LayerTracer()
    traced = workloads.run_once(workload, 5, tmp_path, tracer)
    assert traced["digest"] == plain["digest"]
    assert traced["events"] == plain["events"]
    assert vars(Environment)["run"] is original, "tracer not uninstalled"
    assert tracer.current() is None
    counts = traced["trace"]["counts"]
    for key in ("engine.processes", "ps.jobs", "ps.wakeups",
                "resources.requests", "fabric.transfers"):
        assert counts[key] > 0, key
    self_s = traced["trace"]["self_s"]
    for layer in ("engine", "ps", "resources", "fabric", "deployment",
                  "collector", "workload"):
        assert self_s[layer] > 0, layer
    if name == "overload-retry":
        assert counts["resilience.attempts"] > 0
        assert self_s["resilience"] > 0


def test_slicing_and_reference_chunks_leave_the_simulation_alone(tmp_path):
    from repro.apps.registry import build_app
    from repro.core.experiment import simulate
    from repro.core.provisioning import balanced_provision
    workload = shortened("social-steady", 2.0)
    record = workloads.run_once(workload, 4, tmp_path)
    assert len(record["chunk_s"]) == workloads.SLICES + 1
    assert all(seconds > 0 for seconds in record["chunk_s"])
    assert record["speed"] > 0
    assert workloads.reference_chunk() > 0
    app = build_app(workload.app)
    whole = simulate(app, qps=workload.qps, duration=workload.duration,
                     n_machines=workload.machines,
                     replicas=balanced_provision(app, target_qps=120.0),
                     seed=4, mix=workloads.operation_mix(app, workload),
                     run_env=False)
    whole.deployment.env.run(until=workload.duration + workload.drain)
    assert workloads.sim_digest(whole) == record["digest"]


def test_observed_run_simulates_the_same_as_steady(tmp_path):
    steady = workloads.run_once(shortened("social-steady", 2.0), 3,
                                tmp_path)
    observed_spec = shortened("social-observed", 2.0)
    observed = workloads.run_once(observed_spec, 3, tmp_path)
    assert observed["digest"] == steady["digest"]
    workloads.verify_export(observed_spec, tmp_path, observed)
    assert observed["failures"] == []
    assert observed["export_cpu_s"] > 0


def test_generator_wrapper_forwards_send_throw_and_close():
    tracer = LayerTracer()
    log = []

    def inner():
        try:
            log.append(("sent", (yield "a")))
            try:
                yield "b"
            except KeyError as exc:
                log.append(("caught", exc.args[0]))
            yield "c"
        finally:
            log.append("closed")

    gen = tracer.generator("fabric", inner())
    assert next(gen) == "a"
    assert gen.send(42) == "b"
    assert gen.throw(KeyError("k")) == "c"
    gen.close()
    assert log == [("sent", 42), ("caught", "k"), "closed"]
    assert tracer.current() is None
    assert tracer.self_ns["fabric"] > 0


def test_generator_wrapper_passes_returns_and_errors_through():
    tracer = LayerTracer()

    def returns():
        yield 1
        return "done"

    def outer():
        return (yield from tracer.generator("ps", returns()))

    gen = outer()
    assert next(gen) == 1
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"

    def raises():
        yield 1
        raise ValueError("boom")

    gen = tracer.generator("ps", raises())
    next(gen)
    with pytest.raises(ValueError, match="boom"):
        next(gen)
    assert tracer.current() is None


def test_interrupt_reaches_a_wrapped_process():
    from repro.sim.engine import Environment, Interrupt
    tracer = LayerTracer()
    seen = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            seen.append((env.now, interrupt.cause))

    tracer.install()
    try:
        env = Environment()
        proc = env.process(tracer.generator("workload", sleeper(env)))

        def interrupter():
            yield env.timeout(1.0)
            proc.interrupt("stop")

        env.process(interrupter())
        env.run()
    finally:
        tracer.uninstall()
    assert seen == [(1.0, "stop")]
    assert not proc.is_alive


def bench_command(workload, seconds="1", trace="0"):
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "2", "--seconds", seconds, "--trace", trace]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name):
    proc = subprocess.run(bench_command(name), cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(runner.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = subprocess.run(bench_command("social-steady", trace="1"),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout
    assert result["correct"]
    assert set(result["metrics"]) == set(runner.PER_LAYER)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(bench_command("social-steady"), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
