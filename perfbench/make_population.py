"""Record the ``fleet-zipf`` request population as data.

    python3 perfbench/make_population.py

``repro.fleet.make_population`` keeps only the frames the program can
serve, which it decides by calling the program.  The benchmark must not
let a later change to the program change its workload that way, so the
population is generated once and committed as
``perfbench/data/fleet_population.json``.  The file's order is the Zipf
rank order (rank 0 is the hottest key): the servable frames shuffled
with ``random.Random(0)``.  A run's seed then picks only the Zipf draws
and the arrival times, never which keys are hot.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

KINDS = ("advise", "bound", "run", "mac", "lint")
VARIANTS = ("default", "reuse", "tight-sregs", "partial-sums")
MACHINES = ("c240", "c3800like")
PATH = os.path.join(HERE, "data", "fleet_population.json")


def main() -> int:
    from repro.fleet import make_population

    frames = make_population(kinds=KINDS, variants=VARIANTS,
                             machines=MACHINES)
    random.Random(0).shuffle(frames)
    with open(PATH, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(frame, sort_keys=True)
                                for frame in frames))
        handle.write("\n]\n")
    print(f"wrote {len(frames)} frames to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
