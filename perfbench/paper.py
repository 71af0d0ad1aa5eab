"""Workload ``paper``: cold regeneration of every registered experiment.

Each repetition is a fresh interpreter (``rep.py paper``) that imports
the program, runs ``repro.experiments.run_all()`` once (the
``experiment all`` path) and then checks the output.  The workload has
no generated inputs: the experiments are fixed, so the seed only names
the run.
"""

from __future__ import annotations

from common import (
    Outcome, median, remove_run_dir, repetitions, run_dir, save_spans,
)
from tracing import median_layers


def measure(seed: int, seconds: float, trace: bool) -> Outcome:
    del seed  # nothing to generate
    work = run_dir("paper")
    try:
        untraced, traced, traced_spans = repetitions(
            work, ["paper"], seconds, trace
        )
    finally:
        remove_run_dir(work)

    outcome = Outcome()
    for result in untraced + traced:
        outcome.attempted += result["checks"]
        for failure in result["failures"]:
            outcome.fail(failure)
    regen = [r["regen_s"] for r in untraced]
    regen_median = median(regen)
    outcome.metrics = {
        "setup_s": median(r["import_s"] for r in untraced),
        "peak_rss_mb": median(r["rss_mb"] for r in untraced),
        "op_p50_ms": 1e3 * regen_median,
        "ops_per_s": len(regen) / sum(regen),
    }
    outcome.report += [
        ("regen_s", regen_median, "s",
         f"median of {len(regen)} cold run_all() calls"),
        ("regen_max_s", max(regen), "s", "the slowest of them"),
        ("setup_s", outcome.metrics["setup_s"], "s",
         "median program import in a fresh interpreter"),
        ("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB",
         "median peak RSS of a repetition"),
    ]
    if trace:
        save_spans("paper", traced_spans)
        outcome.layers = median_layers(traced_spans)
        outcome.layers["tail.op_ms"] = 1e3 * max(regen)
        traced_regen = median(r["regen_s"] for r in traced)
        outcome.layers["trace.regen_s"] = traced_regen
        outcome.layers["trace.regen_overhead_s"] = (
            traced_regen - regen_median
        )
    return outcome
