"""The MACS stack benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <paper|long-vectors|fleet-zipf>
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout.  It prints the workload's figures
under their own names, one per line, and then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed``, and ``metrics`` —
every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Every output is checked; a wrong
output counts as failed.  See ``perfbench/README.md`` for why each
workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC  # noqa: E402

WORKLOADS = ("paper", "long-vectors", "fleet-zipf")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    declared = declared_metrics()

    if args.workload == "paper":
        import paper as workload
    elif args.workload == "long-vectors":
        import long_vectors as workload
    else:
        import fleet_zipf as workload
    outcome = workload.measure(args.seed, args.seconds, bool(args.trace))

    for name, value, unit, note in outcome.report:
        print(f"{args.workload}: {name} = {value:.6g} {unit}  ({note})")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"{args.workload}: failed_frac = {failed_frac:.6g}  "
          f"({outcome.failed} of {outcome.attempted} operations failed "
          "or gave a wrong output)")
    for problem in outcome.problems:
        print(f"{args.workload}: FAILED {problem}")

    if args.trace:
        # A layer the workload never calls reports 0.
        metrics = {
            m["name"]: {"value": outcome.layers.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in declared["per_layer"]
        }
        for name, entry in metrics.items():
            print(f"{args.workload}: {name} = {entry['value']:.6g} "
                  f"{entry['unit']}")
    else:
        metrics = {
            m["name"]: {"value": outcome.metrics[m["name"]],
                        "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
