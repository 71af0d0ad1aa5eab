"""The ``advise`` fast tier, end to end over a real socket.

The serving claims under test:

* ``advise`` is answered inline on the frontend — the worker-pool
  ``computed`` counter never moves, only ``static_answers``;
* repeated requests hit the result cache with byte-identical bodies;
* the offline client path renders the same bytes as the server;
* the sampling calibration loop replays requests exactly in the
  worker pool and records verdicts in the durable agreement ledger.
"""

import time

import pytest

from repro.service import (
    DEFAULT_AGREEMENT_GATE,
    AgreementLedger,
    CalibrationSampler,
    ServiceConfig,
    ledger_summary,
    start_in_thread,
)
from repro.service.client import ServiceClient, offline_response


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("advise") / "macs.sock")
    thread = start_in_thread(
        ServiceConfig(socket_path=sock, workers=1, client_limit=32)
    )
    yield thread
    thread.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.endpoints[0]) as active:
        yield active


class TestAdviseFastTier:
    def test_round_trip_has_the_full_static_answer(self, client):
        response = client.advise("lfk1")
        assert response.ok
        body = response.body
        assert body["tier"] == "exact"
        assert body["exact"] is True
        assert body["cycles_low"] <= body["cycles"]
        assert body["cycles"] <= body["cycles_high"]
        assert body["macs"]["ma_cpl"] <= body["macs"]["macs_cpl"]
        assert body["advice"]
        assert body["metrics"]["flops"] > 0

    def test_never_spawns_a_worker(self, client):
        before = client.metrics()
        for kernel in ("lfk2", "lfk4", "lfk9"):
            assert client.advise(kernel).ok
        after = client.metrics()
        assert after["computed"] == before["computed"]
        assert (
            after["static_answers"] >= before["static_answers"] + 3
        )

    def test_repeat_hits_the_result_cache(self, client):
        first = client.advise("lfk10")
        second = client.advise("lfk10")
        assert first.origin in ("computed", "cache")
        assert second.origin == "cache"
        assert second.body == first.body

    def test_offline_render_matches_server_render(self, client):
        params = {"kernel": "lfk3"}
        served = client.request("advise", params)
        offline = offline_response("advise", params)
        assert served.ok and offline.ok
        assert offline.render() == served.render()
        assert offline.key == served.key

    def test_unknown_kernel_is_a_typed_usage_error(self, client):
        # Kernel names are validated at canonicalization, before any
        # tier runs — same typed error as every other request kind.
        response = client.request("advise", {"kernel": "nope"})
        assert response.status == "error"
        assert response.error["code"] == "usage"
        assert response.exit_code == 2
        assert "unknown workload" in response.error["message"]

    def test_scalar_kernel_is_served(self, client):
        response = client.advise("lfk5")
        assert response.ok
        assert response.body["macs"] is None
        assert response.body["tier"] == "exact"

    def test_shorthand_params_reach_the_static_tier(self, client):
        base = client.advise("lfk1")
        sized = client.advise("lfk1", n=64)
        assert sized.ok
        assert sized.body["cycles"] != base.body["cycles"]


class TestCalibrationLoop:
    @pytest.mark.parametrize("machine", [None, "c3800like"])
    def test_sampled_requests_land_in_the_ledger(self, tmp_path,
                                                 machine):
        sock = str(tmp_path / "cal.sock")
        ledger_path = str(tmp_path / "agreement.jsonl")
        thread = start_in_thread(
            ServiceConfig(
                socket_path=sock, workers=1,
                calibrate_every=1, ledger_path=ledger_path,
            )
        )
        try:
            with ServiceClient(thread.endpoints[0]) as client:
                params = {} if machine is None else {"machine": machine}
                assert client.advise("lfk1", **params).ok
                deadline = time.time() + 60
                while time.time() < deadline:
                    snapshot = client.metrics()
                    if snapshot["calibrations"] >= 1:
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("calibration replay never completed")
                assert snapshot["calibration_flags"] == 0
                health = client.healthz()
                assert health["static_flagged"] is False
                assert health["static_widened_gates"] == 0
        finally:
            thread.stop()
        records = AgreementLedger(ledger_path).load()
        assert len(records) >= 1
        record = records[0]
        assert record["kernel"] == "lfk1"
        assert record["tier"] == "exact"
        assert record["rel_error"] == 0.0
        assert record["within_gate"] is True
        assert record["counters_match"] is True
        assert record["action"] == "ok"
        summary = ledger_summary(records)
        assert summary["breaches"] == 0
        assert summary["max_rel_error"] == 0.0


class TestSamplerPolicy:
    def test_every_n_sampling(self):
        sampler = CalibrationSampler(every=3)
        picks = [sampler.should_sample() for _ in range(9)]
        assert picks == [False, False, True] * 3

    def test_disabled_sampler_never_samples(self):
        sampler = CalibrationSampler(every=0)
        assert not any(sampler.should_sample() for _ in range(10))

    def test_exact_tier_delta_is_flagged(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "exact", "cycles": 101.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "flagged"
        assert not verdict.within_gate
        assert sampler.flagged

    def test_model_tier_breach_widens_the_gate(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 110.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "widened"
        assert sampler.widened_gates["lfk1"] == pytest.approx(
            0.1 * 1.25
        )
        assert not sampler.flagged
        # The widened gate now admits the same drift.
        second = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 110.0,
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert second.action == "ok"
        assert second.within_gate

    def test_agreement_within_gate_is_ok(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model",
             "cycles": 100.0 * (1 + DEFAULT_AGREEMENT_GATE / 2),
             "metrics": {"flops": 10}},
            {"cycles": 100.0, "flops": 10},
        )
        assert verdict.action == "ok"
        assert verdict.within_gate

    def test_counter_mismatch_is_reported(self):
        sampler = CalibrationSampler(every=1)
        verdict = sampler.judge(
            "lfk1", "k",
            {"tier": "model", "cycles": 100.0,
             "metrics": {"flops": 11}},
            {"cycles": 100.0, "flops": 10},
        )
        assert not verdict.counters_match
        assert "flops" in verdict.mismatched_counters
