"""In-memory spans recorded from outside the program.

The benchmark never edits ``src/``.  A traced run instead wraps the
program's public entry points (module functions, methods, and the
experiment registry) so that every call records a span: a name, a
start, an end, and the span that was open when it began.  Spans stay in
memory and are written out as JSON lines when the run ends; the layer
figures are computed from the written spans.

Self time is a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call.

        ``describe(result)`` may return a dict of attributes (counts
        read from the result) stored with the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end}
            if describe is not None:
                span["attrs"] = describe(result)
            self.spans.append(span)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Instrumenting the program
# ----------------------------------------------------------------------


def patch_function(module_name: str, attr: str, wrapper_of) -> None:
    """Replace a module function everywhere the program bound it.

    ``from x import f`` copies the function object into the importing
    module, so the original is swapped in every loaded ``repro``
    module that holds it.  Modules imported later resolve the name
    from an already patched module.
    """
    original = getattr(sys.modules[module_name], attr)
    replacement = wrapper_of(original)
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _simulation_attrs(result) -> dict:
    stats = result.fastpath
    return {
        "cycles": result.cycles,
        "instructions": result.instructions_executed,
        "fastpath_engagements": 0 if stats is None else stats.engagements,
        "fastpath_skipped": (0 if stats is None
                             else stats.instructions_skipped),
    }


def instrument_core(tracer: Tracer) -> None:
    """Spans around the compiler, simulator, analysis, model, static
    tier, sweep keys, and (once ``repro.experiments`` is loaded) each
    registered experiment."""
    import repro.analysis
    import repro.compiler.codegen
    import repro.machine.simulator
    import repro.model.ax
    import repro.model.hierarchy
    import repro.model.statictier
    import repro.sweep.spec
    import repro.workloads.runner

    def span(name, describe=None):
        return lambda fn: tracer.wrap(name, fn, describe)

    patch_function("repro.compiler.codegen", "compile_kernel",
                   span("compiler.compile_kernel"))
    runner = "repro.workloads.runner"
    patch_function(runner, "compile_spec", span("workloads.compile_spec"))
    patch_function(runner, "run_kernel", span("workloads.run_kernel"))
    patch_function(runner, "prepare_simulator",
                   span("workloads.prepare_simulator"))
    patch_function("repro.analysis", "analyze_program",
                   span("analysis.analyze_program"))
    patch_function("repro.analysis", "lint_program",
                   span("analysis.lint_program"))
    patch_function("repro.model.hierarchy", "analyze_kernel",
                   span("model.analyze_kernel"))
    patch_function("repro.model.ax", "measure_ax", span("model.measure_ax"))
    patch_function("repro.model.statictier", "predict_kernel",
                   span("static.predict_kernel",
                        lambda r: {"tier": r.prediction.tier}))

    simulator = repro.machine.simulator.Simulator
    simulator.run = tracer.wrap("machine.run", simulator.run,
                                _simulation_attrs)
    task = repro.sweep.spec.SweepTask
    task.key = property(tracer.wrap("sweep.key", task.key.fget))

    experiments = sys.modules.get("repro.experiments")
    if experiments is not None:
        registry = experiments.EXPERIMENTS
        for name, run in list(registry.items()):
            registry[name] = tracer.wrap(f"experiments.{name}", run)


def instrument_fleet_client(tracer: Tracer) -> None:
    """Client-side spans: one per fleet request, one per replica try."""
    import repro.fleet.client
    import repro.service.client

    fleet_client = repro.fleet.client.FleetClient
    fleet_client.request = tracer.wrap(
        "fleet.request", fleet_client.request,
        lambda r: {"origin": r.origin, "server_ms": r.elapsed_ms},
    )
    service_client = repro.service.client.ServiceClient
    service_client.request = tracer.wrap(
        "service.request", service_client.request
    )


# ----------------------------------------------------------------------
# Layer figures from spans
# ----------------------------------------------------------------------


class SpanIndex:
    """Parent/child lookups over one run's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {span["id"]: span for span in spans}
        self.children: dict[int, list[dict]] = {}
        for span in spans:
            self.children.setdefault(span["parent"], []).append(span)

    def named(self, *names: str) -> list[dict]:
        return [span for span in self.spans if span["name"] in names]

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        """Duration minus the union of the children's intervals."""
        intervals = sorted(
            (child["start"], child["end"])
            for child in self.children.get(span["id"], ())
        )
        covered = 0.0
        cursor = span["start"]
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return self.duration(span) - covered

    def has_descendant(self, span: dict, name: str) -> bool:
        pending = list(self.children.get(span["id"], ()))
        while pending:
            child = pending.pop()
            if child["name"] == name:
                return True
            pending.extend(self.children.get(child["id"], ()))
        return False

    def outermost_time(self, *names: str) -> float:
        """Total time in spans of ``names``, counting a span nested in
        another of the same set only once."""
        total = 0.0
        for span in self.named(*names):
            parent = self.by_id.get(span["parent"])
            nested = False
            while parent is not None:
                if parent["name"] in names:
                    nested = True
                    break
                parent = self.by_id.get(parent["parent"])
            if not nested:
                total += self.duration(span)
        return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def core_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures for the in-process layers of one traced run."""
    index = SpanIndex(spans)
    compiles = index.named("compiler.compile_kernel")
    compile_specs = index.named("workloads.compile_spec")
    spec_misses = sum(
        index.has_descendant(span, "compiler.compile_kernel")
        for span in compile_specs
    )
    run_kernels = index.named("workloads.run_kernel")
    run_misses = sum(
        index.has_descendant(span, "machine.run") for span in run_kernels
    )
    runs = index.named("machine.run")
    attrs = [span["attrs"] for span in runs]
    instructions = sum(a["instructions"] for a in attrs)
    analysis = index.named("analysis.analyze_program",
                           "analysis.lint_program")
    statics = index.named("static.predict_kernel")
    keys = index.named("sweep.key")
    layers = {
        "compiler.calls": len(compiles),
        "compiler.s": index.outermost_time("compiler.compile_kernel"),
        "workloads.compile_hit_frac": (
            1.0 - _ratio(spec_misses, len(compile_specs))
            if compile_specs else 0.0
        ),
        "workloads.run_hit_frac": (
            1.0 - _ratio(run_misses, len(run_kernels))
            if run_kernels else 0.0
        ),
        "workloads.prepare_s": index.outermost_time(
            "workloads.prepare_simulator"
        ),
        "machine.run_calls": len(runs),
        "machine.run_s": index.outermost_time("machine.run"),
        "machine.sim_cycles": sum(a["cycles"] for a in attrs),
        "machine.sim_instructions": instructions,
        "machine.fastpath_engagements": sum(
            a["fastpath_engagements"] for a in attrs
        ),
        "machine.fastpath_skip_frac": _ratio(
            sum(a["fastpath_skipped"] for a in attrs), instructions
        ),
        "analysis.calls": len(analysis),
        "analysis.s": index.outermost_time("analysis.analyze_program",
                                           "analysis.lint_program"),
        "model.bounds_s": sum(
            index.self_time(span)
            for span in index.named("model.analyze_kernel")
        ),
        "model.ax_s": index.outermost_time("model.measure_ax"),
        "static.calls": len(statics),
        "static.s": index.outermost_time("static.predict_kernel"),
        "static.exact_frac": _ratio(
            sum(span["attrs"]["tier"] == "exact" for span in statics),
            len(statics),
        ),
        "sweep.key_calls": len(keys),
        "sweep.key_s": index.outermost_time("sweep.key"),
    }
    for name in sorted({span["name"] for span in spans
                        if span["name"].startswith("experiments.")}):
        layers[f"{name}.s"] = index.outermost_time(name)
    return layers


def median_layers(traced_spans: list[list[dict]]) -> dict[str, float]:
    """Each layer figure's median over traced repetitions."""
    import statistics

    per_rep = [core_layers(spans) for spans in traced_spans]
    return {key: statistics.median(layers[key] for layers in per_rep)
            for key in per_rep[0]}
