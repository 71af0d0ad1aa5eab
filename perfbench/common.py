"""Helpers shared by the three workloads."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs from (the parent of this directory).
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one run (deleted at the end) and the last traces.
RUN_DIR = ".perfbench_run"
OUT_DIR = ".perfbench_out"
#: A fresh-interpreter repetition that takes longer than this is hung.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one workload measured."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric name -> value (untraced runs)
    metrics: dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs)
    layers: dict[str, float] = field(default_factory=dict)
    #: the workload's figures under their own names, for people:
    #: (name, value, unit, note)
    report: list[tuple[str, float, str, str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_dir(workload: str) -> str:
    """A fresh scratch directory (relative to the checkout root)."""
    path = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_run_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(RUN_DIR)
    except OSError:
        pass  # another run's directory is still there


def save_spans(workload: str, traced: list[list[dict]]) -> None:
    """Write every traced repetition's spans, tagged by repetition."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}.spans.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for rep, spans in enumerate(traced):
            for span in spans:
                handle.write(json.dumps({"rep": rep, **span},
                                        sort_keys=True) + "\n")


def run_child(args: list[str], out_path: str) -> dict:
    """Run ``rep.py`` in a fresh interpreter and return its result."""
    command = [sys.executable, os.path.join(HERE, "rep.py"), *args,
               "--out", out_path]
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"repetition failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-2000:]}"
        )
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def repetitions(work: str, args: list[str], seconds: float,
                trace: bool) -> tuple[list[dict], list[dict], list]:
    """Fresh-interpreter repetitions of ``rep.py <args>`` until
    ``seconds`` have passed.

    One untimed import comes first, so that the bytecode caches a first
    import writes exist before anything is timed.  A traced run
    alternates traced and untraced repetitions, so that the tracing
    overhead is measured within one run.  Returns the untraced results,
    the traced results, and the traced repetitions' spans.
    """
    from tracing import read_spans

    run_child(["import"], os.path.join(work, "import.json"))
    results, spans_paths = [], []
    deadline = time.monotonic() + seconds
    while len(results) < (4 if trace else 3) or time.monotonic() < deadline:
        index = len(results)
        extra = []
        if trace and index % 2 == 0:
            spans_paths.append(os.path.join(work, f"{index}.spans"))
            extra = ["--spans", spans_paths[-1]]
        results.append(run_child(args + extra,
                                 os.path.join(work, f"{index}.json")))
    if not trace:
        return results, [], []
    return (results[1::2], results[0::2],
            [read_spans(path) for path in spans_paths])
