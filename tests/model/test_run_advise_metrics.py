"""``run`` and ``advise`` report one metrics schema with equal values.

For an exact-tier kernel the static prediction equals the simulator
run bit for bit, so every derived metric must agree too — including
the vector-iteration CPL, which normalizes at the machine's own
maximum vector length (64 on ``cray-nochain``, not the C-240's 128).
"""

import pytest

from repro.machines import builtin_machine, builtin_names
from repro.service import offline_response


@pytest.mark.parametrize("machine", builtin_names())
def test_run_and_advise_metrics_are_equal(machine):
    payload = {"kernel": "lfk1", "machine": machine}
    run = offline_response("run", payload)
    advise = offline_response("advise", payload)
    assert run.ok and advise.ok
    assert advise.body["tier"] == "exact"
    assert run.body["metrics"] == advise.body["metrics"]


def test_vector_iteration_uses_the_machine_max_vl():
    config = builtin_machine("cray-nochain").config
    assert config.max_vl == 64
    metrics = offline_response(
        "run", {"kernel": "lfk1", "machine": "cray-nochain"}
    ).body["metrics"]
    assert metrics["cycles_per_vector_iteration"] == pytest.approx(
        metrics["cpl"] * 64
    )
