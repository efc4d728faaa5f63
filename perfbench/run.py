"""Repo benchmark: CPU-timed simulation throughput on fixed scenarios.

    python3 perfbench/run.py --workload social-steady --seed 1 \\
        --seconds 20 --trace 0

Runs the named workload in fresh single-threaded worker processes, one
after another, until ``--seconds`` of wall time have passed (at least
three runs), checks every run's simulated outputs, and prints the
medians.  CPU times are scaled to a nominal host by reference chunks
each worker runs between slices of its simulation (reference.py).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs
of an untraced and a traced worker on the same seed, requires both to
produce identical simulated outputs, and reports the per-layer metrics
(see README.md).  Every invocation writes a run manifest under
``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = workloads.OUT_DIR

#: Fewest measured worker runs per invocation, so a median exists.
MIN_RUNS = 3
#: No worker starts after this many wall seconds, and none may outlive
#: ``HARD_LIMIT_S``: the whole invocation must end within 180 s.
LAST_START_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {
    "req_per_cpu_s": "req/cpu_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.events_per_req": "count/req",
    "engine.processes_per_req": "count/req",
    "engine.self_us_per_req": "us/req",
    "ps.jobs_per_req": "count/req",
    "ps.wakeups_per_req": "count/req",
    "ps.useful_wakeup_ratio": "ratio",
    "ps.residents_mean": "count",
    "ps.self_us_per_req": "us/req",
    "resources.requests_per_req": "count/req",
    "resources.self_us_per_req": "us/req",
    "fabric.transfers_per_req": "count/req",
    "fabric.cross_machine_share": "ratio",
    "fabric.self_us_per_req": "us/req",
    "deployment.spans_per_req": "count/req",
    "deployment.self_us_per_req": "us/req",
    "resilience.attempts_per_req": "count/req",
    "resilience.useful_attempt_ratio": "ratio",
    "resilience.timeouts_per_req": "count/req",
    "resilience.rejected_per_req": "count/req",
    "resilience.self_us_per_req": "us/req",
    "collector.self_us_per_req": "us/req",
    "collector.stored_share": "ratio",
    "collector.kb_per_stored_trace": "KB",
    "obs.self_us_per_req": "us/req",
    "obs.export_us_per_span": "us",
    "obs.export_share": "ratio",
    "workload.self_us_per_req": "us/req",
    "apps.build_s": "s",
    "trace.overhead_ratio": "ratio",
}


def source_tree_hash() -> str:
    """SHA-256 over the path and bytes of every ``src/repro`` file."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_worker(workload: str, seed: int, started: float,
               trace: bool = False, verify_export: bool = False) -> dict:
    """One worker process; returns its record (``failures`` non-empty
    when it crashed, timed out or failed an output check)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if verify_export:
        cmd.append("--verify-export")
    # One thread: keep numpy's BLAS from starting a thread pool.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    wall_start = time.monotonic()
    budget = max(1.0, HARD_LIMIT_S - (wall_start - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker exceeded {budget:.0f} s"]}
    wall_s = time.monotonic() - wall_start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"failures": [f"worker exit {proc.returncode}: "
                             + " | ".join(tail)]}
    record = json.loads(lines[-1])
    record.update(wall_s=wall_s, traced=trace, seed=seed)
    return record


def run_seed(seed: int, index: int) -> int:
    """The simulation seed of the ``index``-th run of an invocation."""
    return seed * 1000 + index


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced run and its untraced twin."""
    issued = traced["issued"]
    counts = traced["trace"]["counts"]
    self_s = traced["trace"]["self_s"]

    def per_req(value):
        return value / issued

    def share(part, whole):
        return part / whole if whole else 0.0

    def self_us(layer):
        return self_s[layer] * 1e6 / issued

    jobs = counts.get("ps.jobs", 0)
    wakeups = counts.get("ps.wakeups", 0)
    transfers = counts.get("fabric.transfers", 0)
    attempts = counts.get("resilience.attempts", 0)
    stats = traced["resilience"]
    timeouts = stats.get("timeouts", 0)
    return {
        "engine.events_per_req": per_req(traced["events"]),
        "engine.processes_per_req":
            per_req(counts.get("engine.processes", 0)),
        "engine.self_us_per_req": self_us("engine"),
        "ps.jobs_per_req": per_req(jobs),
        "ps.wakeups_per_req": per_req(wakeups),
        "ps.useful_wakeup_ratio": share(jobs, wakeups),
        "ps.residents_mean": share(counts.get("ps.residents", 0), jobs),
        "ps.self_us_per_req": self_us("ps"),
        "resources.requests_per_req":
            per_req(counts.get("resources.requests", 0)),
        "resources.self_us_per_req": self_us("resources"),
        "fabric.transfers_per_req": per_req(transfers),
        "fabric.cross_machine_share":
            share(counts.get("fabric.cross_machine", 0), transfers),
        "fabric.self_us_per_req": self_us("fabric"),
        "deployment.spans_per_req": per_req(traced["spans"]),
        "deployment.self_us_per_req": self_us("deployment"),
        "resilience.attempts_per_req": per_req(attempts),
        "resilience.useful_attempt_ratio":
            share(attempts - timeouts, attempts),
        "resilience.timeouts_per_req": per_req(timeouts),
        "resilience.rejected_per_req": per_req(
            stats.get("breaker_rejected", 0) + stats.get("shed", 0)),
        "resilience.self_us_per_req": self_us("resilience"),
        "collector.self_us_per_req": self_us("collector"),
        "collector.stored_share":
            share(traced["stored"], traced["collected"]),
        "collector.kb_per_stored_trace":
            traced["trace"]["kb_per_stored_trace"],
        "obs.self_us_per_req": self_us("obs"),
        "obs.export_us_per_span":
            share(untraced["export_cpu_s"] * 1e6, untraced["spans"]),
        "obs.export_share":
            share(untraced["export_cpu_s"], untraced["cpu_s"]),
        "workload.self_us_per_req": self_us("workload"),
        "apps.build_s": untraced["build_s"],
        "trace.overhead_ratio": traced["cpu_s"] / untraced["cpu_s"],
    }


def end_to_end_metrics(record: dict) -> dict:
    """CPU times scaled to the nominal host by the worker's reference
    chunks (see reference.py)."""
    speed = record["speed"]
    return {"req_per_cpu_s": record["issued"] / (record["cpu_s"] * speed),
            "setup_s": record["setup_s"] * speed,
            "peak_rss_mb": record["peak_rss_mb"]}


def check_identical(record: dict, reference: dict, what: str) -> None:
    """Fail ``record`` unless its simulated outputs equal the
    reference's."""
    if record.get("failures") or reference.get("failures"):
        return
    if record["digest"] != reference["digest"]:
        record["failures"].append(f"simulated outputs differ from {what}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads.add_source_path(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    started = time.monotonic()

    def keep_going(done: int, fewest: int) -> bool:
        elapsed = time.monotonic() - started
        return elapsed < LAST_START_S and (
            done < fewest or elapsed < args.seconds)

    # The untraced runs; with --trace 1 each is followed by a traced twin
    # on the same seed.  Each run simulates its own seed derived from
    # --seed, so the median covers several samples of the workload's
    # inputs as well as several samples of host noise.
    runs, pairs = [], []
    while keep_going(len(runs), 1 if args.trace else MIN_RUNS):
        seed = run_seed(args.seed, len(runs))
        record = run_worker(workload.name, seed, started,
                            verify_export=not runs)
        runs.append(record)
        if args.trace:
            traced = run_worker(workload.name, seed, started, trace=True)
            check_identical(traced, record, "the untraced run")
            if not traced["failures"] and not record["failures"]:
                if traced["events"] != record["events"]:
                    traced["failures"].append(
                        "tracing changed the event count")
                if traced["export_sha256"] != record["export_sha256"]:
                    traced["failures"].append(
                        "same-seed runs exported different artifacts")
            pairs.append((traced, record))
    references = []
    if workload.observe:
        # Observability must not change what is simulated.
        reference = run_worker("social-steady", run_seed(args.seed, 0),
                               started)
        check_identical(reference, runs[0], "social-observed's run")
        references.append(reference)

    records = runs + [traced for traced, _ in pairs] + references
    ok = [r for r in runs if not r["failures"]]
    if args.trace:
        good = [(t, u) for t, u in pairs
                if not t["failures"] and not u["failures"]]
        samples = [layer_metrics(t, u) for t, u in good]
        units = PER_LAYER
    else:
        samples = [end_to_end_metrics(r) for r in ok]
        units = END_TO_END
    metrics = {name: {"value": statistics.median(s[name] for s in samples),
                      "unit": unit}
               for name, unit in units.items()} if samples else {}

    digest = runs[0].get("digest")
    recorded = json.loads((BENCH / "digests.json").read_text())
    sim_identical = digest == recorded.get(workload.name) \
        if args.seed == workloads.DEFAULT_SEED else None
    manifest = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "spec": asdict(workload),
        "spec_hash": workload.spec_hash(),
        "source_tree_hash": source_tree_hash(),
        "python": platform.python_version(),
        "sim_digest": digest,
        "sim_identical": sim_identical,
        "runs": [{key: r.get(key) for key in (
            "seed", "traced", "events", "issued", "cpu_s", "wall_s",
            "setup_s", "speed", "chunk_s", "peak_rss_mb", "digest",
            "failures")}
            for r in records],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    manifest_path = OUT / (f"manifest-{workload.name}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    failed = sum(1 for r in records if r["failures"])
    for r in records:
        for failure in r["failures"]:
            print(f"perfbench: FAILED: {failure}")
    print("perfbench: " + json.dumps({
        "workload": workload.name, "seed": args.seed,
        "runs": len(records), "sim_digest": digest,
        "sim_identical": sim_identical,
        "wall_s_median": statistics.median(r["wall_s"] for r in ok)
        if ok else None,
        "raw_req_per_cpu_s_median": statistics.median(
            r["issued"] / r["cpu_s"] for r in ok) if ok else None,
        "speed_median": statistics.median(r["speed"] for r in ok)
        if ok else None,
        "manifest": str(manifest_path.relative_to(ROOT))}))
    correct = failed == 0 and bool(samples)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
