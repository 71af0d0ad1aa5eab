"""Simulator counters on every shipped machine, pinned.

``tests/machines/test_differential.py`` holds the c240 machine file to
the hard-coded baseline, and the fast-path suites hold the fast path to
the interpreter.  This pins the absolute figures: ``Simulator.run``'s
cycles and counters for every shipped workload on every shipped machine
file, on c240 with the scalar-cache model and with refresh off, each
with the fast path on and off, must equal ``data/run_counters.json``.
A change to how the timing model is evaluated must leave every figure
equal.

Regenerate the fixture (only when the timing is meant to change) with::

    PYTHONPATH=src python -m tests.machine.test_run_counters
"""

import json
import pathlib

import pytest

from repro.machines import builtin_machine
from repro.workloads import ALL_WORKLOADS, compile_spec, prepare_simulator

FIXTURE = pathlib.Path(__file__).with_name("data") / "run_counters.json"

MACHINES = ("c210", "c240", "c3800like", "cray-nochain")


def configs() -> dict:
    """Every pinned machine configuration, fast path on and off."""
    c240 = builtin_machine("c240").config
    bases = {name: builtin_machine(name).config for name in MACHINES}
    bases["c240-scalar-cache"] = c240.with_scalar_cache()
    bases["c240-norefresh"] = c240.without_refresh()
    out = {}
    for name, config in bases.items():
        out[f"{name}/fastpath"] = config
        out[f"{name}/interpreter"] = config.without_fastpath()
    return out


CONFIGS = configs()


def counters(spec, config) -> dict:
    sim = prepare_simulator(spec, compile_spec(spec), config)
    result = sim.run()
    record = {
        "cycles": result.cycles,
        "instructions": result.instructions_executed,
        "vector_instructions": result.vector_instructions,
        "scalar_instructions": result.scalar_instructions,
        "vector_memory_ops": result.vector_memory_ops,
        "scalar_memory_ops": result.scalar_memory_ops,
        "flops": result.flops,
    }
    if result.scalar_cache is not None:
        record["cache_hits"] = result.scalar_cache.hits
        record["cache_misses"] = result.scalar_cache.misses
    return record


def record() -> dict:
    return {
        f"{spec.name}/{name}": counters(spec, config)
        for name, config in CONFIGS.items()
        for spec in ALL_WORKLOADS
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned) == {
        f"{spec.name}/{name}" for name in CONFIGS for spec in ALL_WORKLOADS
    }


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda s: s.name)
def test_run_counters_pinned(pinned, spec, config_name):
    assert counters(spec, CONFIGS[config_name]) == \
        pinned[f"{spec.name}/{config_name}"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
