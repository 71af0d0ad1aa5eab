"""Workload ``fleet-zipf``: an open loop of requests into a fresh fleet.

Requests are Zipf(s=1.1) draws over the recorded population
(``data/fleet_population.json``: kinds advise/bound/run/mac/lint x all
17 workloads x 4 option variants x machines c240/c3800like, in a fixed
rank order).  Arrivals are Poisson at a few fixed step rates.  Each step
starts a fresh 2-replica ``Fleet(mode="process", workers=1)`` with a
shared L2, so every step sees first sights (misses that compute) and
repeats (hits that only read).  This process is the load generator: it
sends over ``LANES`` lanes, one ``FleetClient`` each, and a request is
sent by whichever lane is free once it is due, so at most ``LANES`` are
outstanding.  Each request is timed from when it was due, which counts
the wait a slow request imposes on the ones behind it.

The first ``WARMUP_REQUESTS`` of each step are sent but not measured:
they cover the fleet's own lazy set-up and the burst of first sights of
the hottest keys, which otherwise decides the tail alone.

After the timed steps, and only then, this process computes the
offline oracle (``repro.fleet.oracle_bodies``) for every distinct
request and byte-compares every response with ``verify_replay``.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import resource
import shutil
import threading
import time

from common import (
    HERE, Outcome, median, percentile, remove_run_dir, run_dir, save_spans,
)

#: Step rates in requests per second; the middle one is nominal.
STEPS = (50.0, 100.0, 400.0)
NOMINAL = 1
#: Share of the run's seconds each step's arrival schedule spans.
SHARES = (0.25, 0.55, 0.2)
SKEW = 1.1
LANES = 2
WARMUP_REQUESTS = 150
#: A step meets the latency limit when its p99 from due time, and the
#: lateness of its last response, are both within this.
LATENCY_LIMIT_MS = 300.0
REPLICAS = 2


def load_population() -> list[dict]:
    with open(os.path.join(HERE, "data", "fleet_population.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def make_schedule(population, rate: float, duration: float, seed: str):
    """Poisson due times (seconds from step start) and Zipf frames."""
    rng = random.Random(seed)
    cumulative, total = [], 0.0
    for rank in range(len(population)):
        total += 1.0 / float(rank + 1) ** SKEW
        cumulative.append(total)
    due, frames, now = [], [], 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= duration:
            break
        rank = bisect.bisect_left(cumulative, rng.random() * total)
        due.append(now)
        frames.append(population[min(rank, len(population) - 1)])
    return due, frames


def _hwm_mb(pid: int) -> float:
    """Peak RSS of a process and all its descendants (Linux /proc)."""
    total = 0.0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as handle:
                for child in handle.read().split():
                    total += _hwm_mb(int(child))
    except OSError:
        pass  # the process ended meanwhile
    return total


class Step:
    """One step's requests, responses and fleet-side figures."""

    def __init__(self, rate: float, due: list[float], frames: list[dict]):
        self.rate = rate
        self.due = due
        self.frames = frames
        count = len(frames)
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.bodies = [""] * count
        self.statuses = ["not-sent"] * count
        self.origins = [""] * count
        self.server_ms = [0.0] * count
        self.setup_s = 0.0
        self.stop_s = 0.0
        self.children_rss_mb = 0.0
        self.replica_metrics: dict[str, dict] = {}
        self.client_stats: list[dict] = []

    def measured(self) -> range:
        return range(min(WARMUP_REQUESTS, len(self.frames)),
                     len(self.frames))

    def latencies_ms(self) -> list[float]:
        return [1e3 * (self.done[i] - self.due[i]) for i in self.measured()]

    def lateness_ms(self) -> list[float]:
        return [1e3 * (self.sent[i] - self.due[i]) for i in self.measured()]

    def drain_ms(self) -> float:
        """How late the last response arrived (backlog at step end)."""
        return 1e3 * (max(self.done) - self.due[-1]) if self.due else 0.0

    def meets_limit(self) -> bool:
        return (percentile(self.latencies_ms(), 99) <= LATENCY_LIMIT_MS
                and self.drain_ms() <= LATENCY_LIMIT_MS)

    def achieved_rate(self) -> float:
        """Measured responses per second, first due to last response."""
        indices = self.measured()
        span = max(self.done[i] for i in indices) - self.due[indices[0]]
        return len(indices) / span


def run_step(step: Step, root: str) -> None:
    """Start a fleet, replay the step's schedule into it, stop it."""
    from repro.fleet import Fleet
    from repro.service.client import ServiceClient

    started = time.perf_counter()
    fleet = Fleet(root, replicas=REPLICAS, mode="process", workers=1)
    try:
        fleet.start()
        for replica in fleet.replicas.values():
            with ServiceClient(replica.endpoint, timeout=30.0) as conn:
                if not conn.ping():
                    raise RuntimeError(f"{replica.name} did not answer")
        step.setup_s = time.perf_counter() - started
        clients = [fleet.client() for _ in range(LANES)]
        try:
            _replay(step, clients)
        finally:
            step.client_stats = [client.stats() for client in clients]
            for client in clients:
                client.close()
        step.replica_metrics = fleet.fleet_metrics()
        step.children_rss_mb = sum(
            _hwm_mb(replica.process.pid)
            for replica in fleet.replicas.values()
        )
    finally:
        stopping = time.perf_counter()
        fleet.stop()
        step.stop_s = time.perf_counter() - stopping
        shutil.rmtree(root, ignore_errors=True)


def _replay(step: Step, clients) -> None:
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05
    step.due = [origin + offset for offset in step.due]

    def lane(client) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(step.frames):
                return
            wait = step.due[index] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            frame = step.frames[index]
            step.sent[index] = time.perf_counter()
            try:
                response = client.request(frame["kind"],
                                          dict(frame["params"]))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                step.statuses[index] = f"transport-error: {exc}"
            else:
                step.statuses[index] = response.status
                step.bodies[index] = response.canonical_text()
                step.origins[index] = response.origin
                step.server_ms[index] = response.elapsed_ms
            step.done[index] = time.perf_counter()

    threads = [threading.Thread(target=lane, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def check_outputs(steps: list[Step], outcome: Outcome) -> None:
    """Byte-compare every response with the offline oracle."""
    from repro.errors import ExperimentError
    from repro.fleet import oracle_bodies, verify_replay
    from repro.fleet.replay import ReplayReport

    frames = [frame for step in steps for frame in step.frames]
    oracle_by_frame: dict[str, str] = {}
    for frame in frames:
        key = json.dumps(frame, sort_keys=True)
        if key not in oracle_by_frame:
            try:
                oracle_by_frame[key] = oracle_bodies([frame])[0]
            except ExperimentError as exc:
                oracle_by_frame[key] = ""
                outcome.problems.append(f"oracle failed: {exc}")
    oracle = [oracle_by_frame[json.dumps(frame, sort_keys=True)]
              for frame in frames]
    report = ReplayReport(
        jobs=LANES, elapsed_s=0.0,
        bodies=[body for step in steps for body in step.bodies],
        statuses=[status for step in steps for status in step.statuses],
        origins=[origin for step in steps for origin in step.origins],
    )
    outcome.attempted += len(frames)
    for mismatch in verify_replay(frames, report, oracle):
        outcome.fail(f"request {mismatch['request']}: status "
                     f"{mismatch['status']}, body differs from the oracle")


def _sum_replicas(step: Step, *path: str) -> float:
    total = 0.0
    for body in step.replica_metrics.values():
        value = body
        for key in path:
            value = value.get(key, {}) if isinstance(value, dict) else {}
        total += value if isinstance(value, (int, float)) else 0.0
    return total


def fleet_layers(step: Step, spans: list[dict]) -> dict[str, float]:
    l1_hits = _sum_replicas(step, "cache", "hits")
    l1_misses = _sum_replicas(step, "cache", "misses")
    l2_hits = _sum_replicas(step, "l2", "hits")
    l2_misses = _sum_replicas(step, "l2", "misses")
    computed_ms = [step.server_ms[i] for i in step.measured()
                   if step.origins[i] == "computed"]
    requests = [span for span in spans if span["name"] == "fleet.request"]
    hits = [1e3 * (s["end"] - s["start"]) for s in requests
            if s["attrs"]["origin"] == "cache"]
    misses = [1e3 * (s["end"] - s["start"]) for s in requests
              if s["attrs"]["origin"] in ("computed", "coalesced")]
    return {
        "service.l1_hit_frac": l1_hits / max(l1_hits + l1_misses, 1),
        "service.computed": _sum_replicas(step, "computed"),
        "service.coalesced": _sum_replicas(step, "coalesced"),
        "service.compute_p50_ms": median(computed_ms),
        "fleet.l2_hit_frac": l2_hits / max(l2_hits + l2_misses, 1),
        "fleet.l2_writes": _sum_replicas(step, "l2", "writes"),
        "fleet.retries": sum(stats["failovers"] + stats["rejected_retries"]
                             for stats in step.client_stats),
        "fleet.hit_p50_ms": median(hits),
        "fleet.miss_p50_ms": median(misses),
        "loadgen.lag_p99_ms": percentile(step.lateness_ms(), 99),
        "loadgen.sent": len(step.frames),
    }


def measure(seed: int, seconds: float, trace: bool) -> Outcome:
    population = load_population()
    work = run_dir("fleet-zipf")
    schedules = [
        make_schedule(population, rate, share * seconds, f"{seed}:{index}")
        for index, (rate, share) in enumerate(zip(STEPS, SHARES))
    ]
    if trace:
        # The nominal step twice: untraced, then with client spans.
        due, frames = schedules[NOMINAL]
        steps = [Step(STEPS[NOMINAL], list(due), frames) for _ in range(2)]
    else:
        steps = [Step(rate, list(due), frames)
                 for rate, (due, frames) in zip(STEPS, schedules)]
    tracer = None
    try:
        for index, step in enumerate(steps):
            if trace and index == 1:
                from tracing import Tracer, instrument_fleet_client

                tracer = Tracer()
                instrument_fleet_client(tracer)
            run_step(step, os.path.join(work, f"step{index}"))
        own_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        remove_run_dir(work)

    outcome = Outcome()
    check_outputs(steps, outcome)
    nominal = steps[0 if trace else NOMINAL]
    latencies = nominal.latencies_ms()
    passing = [step for step in steps if step.meets_limit()]
    if passing:
        max_rate = max(passing, key=lambda s: s.rate).achieved_rate()
    else:
        # Below the lowest step: scale its rate down by how far its
        # tail overshot the limit.
        lowest = steps[0]
        max_rate = lowest.achieved_rate() * LATENCY_LIMIT_MS / max(
            percentile(lowest.latencies_ms(), 99), lowest.drain_ms())
    outcome.metrics = {
        "setup_s": median(step.setup_s for step in steps),
        "peak_rss_mb": own_rss_mb + max(s.children_rss_mb for s in steps),
        "op_p50_ms": median(latencies),
        "ops_per_s": max_rate,
    }
    tail_ms = percentile(latencies, 99)
    samples = f"{len(latencies)} requests at {nominal.rate:g} rps"
    outcome.report += [
        ("req_p50_ms", outcome.metrics["op_p50_ms"], "ms", samples),
        ("req_p99_ms", tail_ms, "ms", samples),
    ]
    if not trace:
        outcome.report.append(
            ("max_rate_rps", max_rate, "1/s",
             f"steps {'/'.join(f'{r:g}' for r in STEPS)} rps, p99 and "
             f"drain limit {LATENCY_LIMIT_MS:g} ms")
        )
        for step in steps:
            outcome.report.append(
                (f"step_{step.rate:g}rps_p99_ms",
                 percentile(step.latencies_ms(), 99), "ms",
                 f"{len(step.latencies_ms())} measured, drain "
                 f"{step.drain_ms():.1f} ms")
            )
    outcome.report += [
        ("setup_s", outcome.metrics["setup_s"], "s",
         f"median Fleet.start() until {REPLICAS} replicas answer"),
        ("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB",
         "generator plus replica process trees"),
    ]
    if trace:
        traced = steps[1]
        outcome.layers = fleet_layers(traced, tracer.spans)
        outcome.layers["fleet.stop_s"] = median(s.stop_s for s in steps)
        outcome.layers["tail.op_ms"] = tail_ms
        traced_p50 = median(traced.latencies_ms())
        outcome.layers["trace.req_p50_ms"] = traced_p50
        outcome.layers["trace.req_p50_overhead_ms"] = (
            traced_p50 - outcome.metrics["op_p50_ms"]
        )
        save_spans("fleet-zipf", [tracer.spans])
    return outcome
