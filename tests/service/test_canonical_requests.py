"""Canonical request keys and payloads, pinned.

Content keys scope the durable L1 log, the shared L2 directory and the
fleet ring, so a refactor of :func:`~repro.service.protocol.canonicalize`
must leave every key and payload byte-identical.  These tests
canonicalize a fixed grid of requests and compare ``(kind, key,
payload)`` with the recorded ``data/canonical_requests.json``:

* the six kernel kinds x three workloads (one scalar) x machines
  {none, ``c210``, ``c3800like``} x {default, ``variant: reuse``,
  ``options: vector_length=64``} x {no ``n``, ``n: 100``} x {plain,
  ``max_cycles: 1e7``, ``no_fastpath: true``};
* ``lint`` at each ``min_severity``;
* two ``report`` and two ``sweep`` requests.

Regenerate the fixture (only when keys are meant to change) with::

    PYTHONPATH=src python -m tests.service.test_canonical_requests
"""

import json
import pathlib

import pytest

from repro.service.protocol import canonicalize

FIXTURE = pathlib.Path(__file__).with_name("data") / \
    "canonical_requests.json"

KERNEL_KINDS = ("run", "bound", "mac", "ax", "analyze", "advise")
KERNELS = ("lfk1", "lfk5", "heat1d")  # lfk5 is a scalar kernel
MACHINES = {"base": {}, "c210": {"machine": "c210"},
            "c3800like": {"machine": "c3800like"}}
OPTIONS = {"default": {}, "reuse": {"variant": "reuse"},
           "vl64": {"options": "vector_length=64"}}
SIZES = {"nat": {}, "n100": {"n": 100}}
SWITCHES = {"plain": {}, "budget": {"max_cycles": 1e7},
            "exact": {"no_fastpath": True}}


def grid() -> dict:
    """Case id -> (kind, params) for every pinned request."""
    cases: dict = {}
    for kind in KERNEL_KINDS:
        for kernel in KERNELS:
            for m, machine in MACHINES.items():
                for o, options in OPTIONS.items():
                    for s, size in SIZES.items():
                        for w, switch in SWITCHES.items():
                            cases[f"{kind}/{kernel}/{m}/{o}/{s}/{w}"] = (
                                kind,
                                {"kernel": kernel, **machine, **options,
                                 **size, **switch},
                            )
    for severity in ("info", "warning", "error"):
        cases[f"lint/lfk1/{severity}"] = (
            "lint", {"kernel": "lfk1", "min_severity": severity}
        )
    cases["report/all"] = ("report", {})
    cases["report/two"] = ("report",
                           {"experiments": ["table1", "figure1"]})
    cases["sweep/default"] = ("sweep", {"kernels": ["lfk1", "lfk3"]})
    cases["sweep/c210"] = ("sweep", {
        "kernels": ["lfk1"], "variants": ["default", "reuse"],
        "machine": "c210", "max_cycles": 1e7,
    })
    return cases


def canonical(kind: str, params: dict) -> dict:
    request = canonicalize(kind, dict(params))
    return {"kind": request.kind, "key": request.key,
            "payload": request.payload}


def record() -> dict:
    return {case: canonical(kind, params)
            for case, (kind, params) in grid().items()}


GRID = grid()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert set(pinned) == set(GRID)


@pytest.mark.parametrize("case", sorted(GRID))
def test_key_and_payload_pinned(pinned, case):
    kind, params = GRID[case]
    assert canonical(kind, params) == pinned[case]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
