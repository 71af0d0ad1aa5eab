"""Steady-state fast path: the skips themselves, pinned.

``test_fastpath.py`` proves every engagement is invisible.  These tests
pin *which* engagements happen: the fast-path counters of every shipped
workload under every configuration, and of generated loops up to sizes
where one engagement hits the ``MAX_K_VECTOR`` cap and skipping resumes
in chunks, must equal the recorded ``data/fastpath_stats.json``.  A
change to how a skip is proven may make it cheaper, never different.

Regenerate the fixture (only when the skips are meant to change) with::

    PYTHONPATH=src python -m tests.machine.test_fastpath_skips
"""

import dataclasses
import json
import pathlib

import pytest

from repro.machine.fastpath import MAX_K_VECTOR
from repro.workloads import ALL_WORKLOADS
from tests.machine.test_fastpath import (
    CONFIGS,
    assert_identical,
    run_generated_pair,
    run_spec,
)

FIXTURE = pathlib.Path(__file__).with_name("data") / "fastpath_stats.json"

#: (seed, config, n) of the generated loops of ``TestGeneratedLoops``:
#: its default sizes and its long loops.
GENERATED = (
    [(seed, "default", None) for seed in range(8)]
    + [(seed, name, 1500) for name in ("default", "norefresh",
                                       "scalar-cache", "vl99")
       for seed in (0, 3, 5)]
)
#: Large loops, checked fast path on/off as well: 100k elements (full
#: and gapped 99-element strips), and one size past
#: ``MAX_K_VECTOR`` strips of 128.
LARGE = [(0, "default", 100_000), (0, "vl99", 100_000),
         (3, "default", 600_000)]


def stats_dict(stats) -> dict:
    record = dataclasses.asdict(stats)
    record["declines"] = dict(sorted(record["declines"].items()))
    return record


def generated_id(seed, config_name, n) -> str:
    return f"generated/{seed}/{config_name}/{n or 'default'}"


def record() -> dict:
    """Every pinned case's counters, computed by the code under test."""
    stats = {}
    for config_name, config in CONFIGS.items():
        for spec in ALL_WORKLOADS:
            _, result = run_spec(spec, config)
            stats[f"workload/{spec.name}/{config_name}"] = \
                stats_dict(result.fastpath)
    for seed, config_name, n in GENERATED + LARGE:
        _, results = run_generated_pair(seed, CONFIGS[config_name], n=n)
        stats[generated_id(seed, config_name, n)] = \
            stats_dict(results[0].fastpath)
    return stats


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    expected = {f"workload/{spec.name}/{name}"
                for name in CONFIGS for spec in ALL_WORKLOADS}
    expected |= {generated_id(*case) for case in GENERATED + LARGE}
    assert set(pinned) == expected


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda s: s.name)
def test_workload_skips_pinned(pinned, spec, config_name):
    _, result = run_spec(spec, CONFIGS[config_name])
    assert stats_dict(result.fastpath) == \
        pinned[f"workload/{spec.name}/{config_name}"]


@pytest.mark.parametrize("case", GENERATED,
                         ids=lambda case: generated_id(*case))
def test_generated_skips_pinned(pinned, case):
    seed, config_name, n = case
    _, results = run_generated_pair(seed, CONFIGS[config_name], n=n)
    assert stats_dict(results[0].fastpath) == pinned[generated_id(*case)]


@pytest.mark.parametrize("case", LARGE, ids=lambda case: generated_id(*case))
def test_large_loops_identical_and_pinned(pinned, case):
    seed, config_name, n = case
    sims, results = run_generated_pair(seed, CONFIGS[config_name], n=n)
    assert_identical(sims[0], results[0], sims[1], results[1])
    stats = results[0].fastpath
    assert stats_dict(stats) == pinned[generated_id(*case)]
    assert stats.engagements >= 1
    if n > MAX_K_VECTOR * 128:
        # the first engagement stops at the cap; the rest resume
        assert stats.engagements >= 2
        assert stats.iterations_skipped > MAX_K_VECTOR


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
