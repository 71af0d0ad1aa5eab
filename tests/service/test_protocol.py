"""Protocol unit tests: canonicalization, keys, framing, rendering."""

import json
import math

import pytest

from repro.compiler.options import DEFAULT_OPTIONS
from repro.errors import ERROR_EXIT_CODES
from repro.service.protocol import (
    CONTROL_KINDS,
    REQUEST_KINDS,
    ProtocolError,
    Response,
    canonicalize,
    decode_line,
    encode_line,
    error_response,
    options_from_dict,
    options_to_dict,
    render_body,
)
from repro.sweep.spec import OPTION_VARIANTS


class TestCanonicalize:
    def test_same_params_same_key(self):
        a = canonicalize("bound", {"kernel": "lfk1"})
        b = canonicalize("bound", {"kernel": "lfk1"})
        assert a.key == b.key
        assert a.payload == b.payload

    def test_task_kinds_reuse_sweep_keys(self):
        from repro.machine import DEFAULT_CONFIG
        from repro.sweep.spec import SweepTask

        request = canonicalize("bound", {"kernel": "lfk1"})
        task = SweepTask(
            workload="lfk1", options=DEFAULT_OPTIONS,
            config=DEFAULT_CONFIG, n=None, mode="bound",
        )
        assert request.key == task.key

    def test_variant_and_equivalent_options_share_key(self):
        via_variant = canonicalize(
            "bound", {"kernel": "lfk1", "variant": "default"}
        )
        plain = canonicalize("bound", {"kernel": "lfk1"})
        assert via_variant.key == plain.key

    def test_distinct_kinds_distinct_keys(self):
        keys = {
            canonicalize(kind, {"kernel": "lfk1"}).key
            for kind in ("run", "bound", "mac", "ax", "lint", "analyze")
        }
        assert len(keys) == 6

    def test_inject_is_not_part_of_the_key(self):
        plain = canonicalize("run", {"kernel": "lfk2"})
        poisoned = canonicalize(
            "run",
            {"kernel": "lfk2",
             "_inject": {"kind": "exit", "attempts": 1}},
        )
        assert poisoned.key == plain.key
        assert poisoned.payload["_inject"]["kind"] == "exit"
        assert "_inject" not in plain.payload

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            canonicalize("bogus", {})

    def test_control_kinds_are_not_compute_kinds(self):
        for kind in CONTROL_KINDS:
            assert kind not in REQUEST_KINDS
            with pytest.raises(ProtocolError):
                canonicalize(kind, {})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ProtocolError):
            canonicalize("bound", {"kernel": "nope"})

    def test_missing_kernel_rejected(self):
        with pytest.raises(ProtocolError, match="kernel"):
            canonicalize("bound", {})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ProtocolError, match="variant"):
            canonicalize("bound",
                         {"kernel": "lfk1", "variant": "bogus"})

    def test_variant_and_options_mutually_exclusive(self):
        with pytest.raises(ProtocolError, match="mutually exclusive"):
            canonicalize(
                "bound",
                {"kernel": "lfk1", "variant": "default",
                 "options": "unroll=2"},
            )

    def test_bad_problem_size_rejected(self):
        for n in (0, -3, 1.5, True):
            with pytest.raises(ProtocolError):
                canonicalize("run", {"kernel": "lfk1", "n": n})

    @pytest.mark.parametrize("kind", ["run", "advise", "sweep"])
    @pytest.mark.parametrize("params, deadline, match", [
        *[({}, bad, "deadline_s must be")
          for bad in ("soon", -1, 0, math.nan, math.inf, True)],
        ({"deadline_s": 5}, None, "frame-level field"),
        *[({"max_cycles": bad}, None, "max_cycles must be")
          for bad in (-5, 0, math.nan, math.inf, True, "x", [1])],
        *[({"_inject": {"kind": "raise", "attempts": bad}}, None,
           "_inject.attempts") for bad in ("x", 0, -1, True, None)],
    ])
    def test_malformed_numbers_rejected(self, kind, params, deadline,
                                        match):
        with pytest.raises(ProtocolError, match=match):
            canonicalize(
                kind, {"kernel": "lfk1", "kernels": ["lfk1"], **params},
                deadline_s=deadline,
            )

    def test_frame_deadline_is_validated_not_keyed(self):
        timed = canonicalize("run", {"kernel": "lfk1"}, deadline_s="2.5")
        plain = canonicalize("run", {"kernel": "lfk1"})
        assert timed.deadline_s == 2.5
        assert timed.key == plain.key and timed.payload == plain.payload

    def test_sweep_validates_kernels_and_variants(self):
        with pytest.raises(ProtocolError):
            canonicalize("sweep", {"kernels": ["nope"]})
        with pytest.raises(ProtocolError):
            canonicalize("sweep",
                         {"kernels": ["lfk1"], "variants": ["bogus"]})

    def test_report_validates_experiment_names(self):
        with pytest.raises(ProtocolError, match="unknown experiment"):
            canonicalize("report", {"experiments": ["nope"]})

    def test_report_name_order_does_not_change_key(self):
        a = canonicalize(
            "report", {"experiments": ["table1", "figure1"]}
        )
        b = canonicalize(
            "report", {"experiments": ["figure1", "table1"]}
        )
        assert a.key == b.key


class TestOptionsRoundTrip:
    @pytest.mark.parametrize("name", sorted(OPTION_VARIANTS))
    def test_every_variant_round_trips(self, name):
        options = OPTION_VARIANTS[name]
        rebuilt = options_from_dict(options_to_dict(options))
        assert rebuilt == options

    def test_default_options_serialize_empty(self):
        assert options_to_dict(DEFAULT_OPTIONS) == {}

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown compiler"):
            options_from_dict({"warp_drive": True})


class TestFraming:
    def test_encode_decode_round_trip(self):
        frame = {"id": "r1", "kind": "bound",
                 "params": {"kernel": "lfk1"}}
        assert decode_line(encode_line(frame)) == frame

    def test_encoding_is_canonical(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_line(b"{nope\n")

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1, 2]\n")


class TestResponses:
    def test_error_exit_codes_match_taxonomy(self):
        assert ERROR_EXIT_CODES["usage"] == 2
        assert ERROR_EXIT_CODES["workload"] == 3
        assert ERROR_EXIT_CODES["simulation"] == 4
        assert ERROR_EXIT_CODES["budget"] == 4
        assert ERROR_EXIT_CODES["infrastructure"] == 5
        assert ERROR_EXIT_CODES["unavailable"] == 6

    def test_error_response_envelope(self):
        envelope = error_response(
            "r9", "bound", "busy", "queue full",
            status="rejected", retry_after_s=0.25,
        )
        response = Response.from_dict(envelope)
        assert not response.ok
        assert response.status == "rejected"
        assert response.error["retry_after_s"] == 0.25
        assert response.exit_code == 6  # busy -> unavailable family

    def test_ok_response_exit_code(self):
        response = Response.from_dict(
            {"id": "r1", "status": "ok", "kind": "bound",
             "body": {"x": 1}}
        )
        assert response.ok and response.exit_code == 0

    def test_canonical_text_is_byte_stable(self):
        a = Response(id="1", status="ok", body={"b": 1, "a": 2})
        b = Response(id="2", status="ok", body={"a": 2, "b": 1})
        assert a.canonical_text() == b.canonical_text()

    def test_render_body_json_kinds(self):
        text = render_body("bound", {"kernel": "lfk1"})
        assert json.loads(text) == {"kernel": "lfk1"}

    def test_render_body_text_kinds(self):
        assert render_body("analyze", {"report": "hello"}) == "hello"
        assert render_body("sweep", {"table": "t"}) == "t"
