"""One timed repetition, in a fresh interpreter.

``python3 perfbench/rep.py <import|paper|long-vectors> --out result.json
[--inputs inputs.npz] [--spans spans.jsonl]``

The program's memo tables (compile, run, A/X, analysis and static
caches, the decode memo, ``functools`` caches) are process-global and
some survive ``clear_caches()``, so the only cold start that is cold
is a new process.  This script is that process: it times importing the
program, then the work, and only after the clock stops does it check
outputs.  It never runs the harness's own work (input generation,
references) before the timed part.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Table 4 bands the integration tests calibrate against: the MA and
#: MAC bounds match the paper within 0.002 CPF, MACS within 7%, and the
#: simulated t_c within 20%.
TABLE4_BANDS = {"t_ma_cpf": ("abs", 0.002), "t_mac_cpf": ("abs", 0.002),
                "t_macs_cpf": ("rel", 0.07), "t_c_cpf": ("rel", 0.20)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_paper(spans_path: str | None) -> dict:
    import repro.experiments
    import repro.workloads

    imported = time.perf_counter()
    tracer = None
    if spans_path:
        from tracing import Tracer, instrument_core

        tracer = Tracer()
        instrument_core(tracer)
    start = time.perf_counter()
    results = repro.experiments.run_all()
    regen_s = time.perf_counter() - start
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.write(spans_path)

    failures = []
    # The text ``macs-repro experiment all`` prints.
    text = "".join(result.render() + "\n\n" for result in results)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    with open(os.path.join(HERE, "data", "expected.json"),
              encoding="utf-8") as handle:
        expected = json.load(handle)
    if digest != expected["experiment_all_sha256"]:
        failures.append(f"experiment all digest {digest}")
    checks = 1

    for spec in repro.workloads.ALL_WORKLOADS:
        checks += 1
        try:
            repro.workloads.run_kernel(spec, verify=True)
        except repro.ReproError as exc:
            failures.append(f"verify {spec.name}: {exc}")

    from repro import paperdata

    names = list(repro.experiments.EXPERIMENTS)
    table4 = results[names.index("table4")]
    for analysis in table4.data["analyses"]:
        checks += 1
        paper = paperdata.PAPER_TABLE4[analysis.spec.number]
        ours = {
            "t_ma_cpf": analysis.to_cpf(analysis.ma.cpl),
            "t_mac_cpf": analysis.to_cpf(analysis.mac.cpl),
            "t_macs_cpf": analysis.to_cpf(analysis.macs.cpl),
            "t_c_cpf": analysis.to_cpf(analysis.t_p_cpl),
        }
        for field, (kind, tolerance) in TABLE4_BANDS.items():
            want = getattr(paper, field)
            error = abs(ours[field] - want)
            if kind == "rel":
                error /= abs(want)
            if error > tolerance:
                failures.append(
                    f"table4 LFK{paper.kernel} {field} {ours[field]:.4f} "
                    f"vs paper {want:.4f}"
                )
                break
    return {"import_s": imported - T_START, "regen_s": regen_s,
            "rss_mb": rss, "checks": checks, "failures": failures}


def run_long_vectors(inputs_path: str, spans_path: str | None) -> dict:
    import numpy as np

    from repro.compiler import compile_kernel
    from repro.machine import Simulator
    from repro.machines import machine

    imported = time.perf_counter()
    config = machine("c240").config
    archive = np.load(inputs_path, allow_pickle=False)
    meta = json.loads(str(archive["meta"]))
    tracer = None
    if spans_path:
        from tracing import Tracer, instrument_core

        tracer = Tracer()
        instrument_core(tracer)
        compile_kernel = sys.modules["repro.compiler"].compile_kernel

    loops = []
    outputs = {}
    for index, loop in enumerate(meta["loops"]):
        data = {name: archive[f"{index}:{name}"] for name in loop["arrays"]}
        start = time.perf_counter()
        compiled = compile_kernel(loop["source"], f"loop{index}")
        compiled_at = time.perf_counter()
        sim = Simulator(compiled.program, config)
        for name, values in compiled.initial_data(data).items():
            sim.load_symbol(name, values)
        sim.memory.load_array(compiled.scalar_word_offset("n"),
                              np.asarray([float(loop["n"])]))
        for name, value in loop["scalars"].items():
            sim.memory.load_array(compiled.scalar_word_offset(name),
                                  np.asarray([value]))
        result = sim.run()
        end = time.perf_counter()
        if loop["output"] is None:
            outputs[str(index)] = sim.memory.dump_array(
                compiled.scalar_word_offset("ACC"), 1
            )
        else:
            outputs[str(index)] = sim.dump_symbol(loop["output"])
        loops.append({
            "compile_s": compiled_at - start,
            "simulate_s": end - compiled_at,
            "cycles": result.cycles,
            "instructions": result.instructions_executed,
        })
    rss = peak_rss_mb()
    archive.close()
    if tracer is not None:
        tracer.write(spans_path)
    outputs_path = os.path.splitext(inputs_path)[0] + ".out.npz"
    np.savez(outputs_path, **outputs)
    return {"import_s": imported - T_START, "rss_mb": rss,
            "loops": loops, "outputs": outputs_path}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload",
                        choices=["import", "paper", "long-vectors"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    if args.workload == "import":
        import repro.experiments  # noqa: F401

        result = {}
    elif args.workload == "paper":
        result = run_paper(args.spans)
    else:
        result = run_long_vectors(args.inputs, args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
