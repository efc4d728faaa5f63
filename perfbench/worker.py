"""One measured run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON record on stdout.  A fresh
process per run is what makes ``setup_s`` (CPU from process start to
the first simulated event) include the imports every ``repro
simulate`` call pays.

    python3 perfbench/worker.py --workload social-steady --seed 1000 \\
        [--trace] [--verify-export]
"""

import argparse
import json
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="wrap every layer's entry points")
    parser.add_argument("--verify-export", action="store_true",
                        help="re-import the written OTLP after the run")
    args = parser.parse_args()
    workloads.add_source_path(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import LayerTracer
        tracer = LayerTracer()
    out_dir = workloads.OUT_DIR
    record = workloads.run_once(workload, args.seed, out_dir, tracer)
    if args.verify_export and workload.observe:
        workloads.verify_export(workload, out_dir, record)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
