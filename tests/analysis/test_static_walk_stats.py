"""Static walker: how much it summarizes, pinned.

``test_staticpred.py`` and the property tests prove the exact tier is
exact.  These tests pin *how* the walker gets there: for every shipped
workload under every fast-path test configuration, the tier, decline
reason, cycles, the six counters and the loop-summary bookkeeping
(``loops_summarized``, ``iterations_skipped``) of
:func:`~repro.analysis.predict_program` must equal the recorded
``data/static_walk_stats.json``.  Exactness alone would not notice a
walker that interprets loops it used to summarize.

Regenerate the fixture (only when the summaries are meant to change)
with::

    PYTHONPATH=src python -m tests.analysis.test_static_walk_stats
"""

import json
import pathlib

import pytest

from repro.analysis import predict_program
from repro.errors import AnalysisError
from repro.model import known_initial_memory
from repro.workloads import ALL_WORKLOADS, compile_spec
from tests.machine.test_fastpath import CONFIGS, COUNTERS

FIXTURE = pathlib.Path(__file__).with_name("data") / "static_walk_stats.json"


def walk_stats(spec, config) -> dict:
    """The pinned fields, or the typed error when no tier can answer."""
    compiled = compile_spec(spec)
    try:
        prediction = predict_program(
            compiled.program,
            config,
            known_memory=known_initial_memory(spec, compiled),
            trips=spec.trip_profile or None,
        )
    except AnalysisError as error:
        return {"error": str(error)}
    return {
        name: getattr(prediction, name)
        for name in ("tier", "decline_reason", "cycles", *COUNTERS,
                     "loops_summarized", "iterations_skipped")
    }


def case_id(spec, config_name) -> str:
    return f"workload/{spec.name}/{config_name}"


def record() -> dict:
    """Every pinned case's prediction, computed by the code under test."""
    return {
        case_id(spec, config_name): walk_stats(spec, config)
        for config_name, config in CONFIGS.items()
        for spec in ALL_WORKLOADS
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned) == {case_id(spec, name)
                           for name in CONFIGS for spec in ALL_WORKLOADS}


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda s: s.name)
def test_walk_stats_pinned(pinned, spec, config_name):
    assert walk_stats(spec, CONFIGS[config_name]) == \
        pinned[case_id(spec, config_name)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
