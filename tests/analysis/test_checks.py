"""The lint checker suite, one behaviour per test."""

import types

import pytest

from repro.analysis import (
    _ANALYSIS_CACHE,
    LintOptions,
    Severity,
    analyze_program,
    lint_program,
)
from repro.analysis.checks import _validate_chime, suppressed_checks
from repro.isa.builder import AsmBuilder
from repro.isa.operands import Immediate
from repro.isa.registers import areg, sreg, vreg
from repro.schedule.chimes import DEFAULT_RULES

from .builders import (
    forwarding_program,
    overlap_program,
    partial_init_program,
    strip_program,
    uninit_program,
    unreachable_program,
    vector_mov_program,
)


def findings_for(program, check, options=LintOptions()):
    return [f for f in lint_program(program, options) if f.check == check]


def teardown_module():
    _ANALYSIS_CACHE.clear()


class TestSeverity:
    def test_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO

    def test_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.parse("bogus")


class TestUninitReads:
    def test_never_written_is_an_error(self):
        found = findings_for(uninit_program(), "uninit-read")
        assert len(found) == 2  # s0 and s1
        assert all(f.severity is Severity.ERROR for f in found)

    def test_partially_written_is_a_warning(self):
        found = findings_for(partial_init_program(), "uninit-read")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "some paths" in found[0].message

    def test_clean_program_has_none(self):
        assert findings_for(strip_program(), "uninit-read") == []

    def test_zeroing_idiom_is_exempt(self):
        b = AsmBuilder("zero")
        x = b.data("x", 256)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(4))
        b.vsub(vreg(3), vreg(3), vreg(3))
        b.vstore(vreg(3), b.mem(x, areg(0)))
        assert findings_for(b.build(), "uninit-read") == []


class TestSuppression:
    def test_comment_directive_silences_one_check(self):
        program = uninit_program(comment="x (lint:ok uninit-read)")
        assert findings_for(program, "uninit-read") == []

    def test_directive_parses_trailing_punctuation(self):
        program = uninit_program(comment="zero acc (lint:ok uninit-read)")
        directive = suppressed_checks(program[1])
        assert directive == frozenset({"uninit-read"})

    def test_all_directive_silences_everything(self):
        program = uninit_program(comment="lint:ok all")
        assert findings_for(program, "uninit-read") == []

    def test_program_wide_suppression(self):
        options = LintOptions(suppress=frozenset({"uninit-read"}))
        assert findings_for(uninit_program(), "uninit-read", options) == []

    def test_unrelated_directive_does_not_silence(self):
        program = uninit_program(comment="lint:ok dead-store")
        assert len(findings_for(program, "uninit-read")) == 2


class TestVLChecks:
    def test_reset_read_warns(self):
        b = AsmBuilder("reset")
        x = b.data("x", 256)
        b.mov(Immediate(0), areg(0))
        b.vload(b.mem(x, areg(0)), vreg(0))
        b.vstore(vreg(0), b.mem(x, areg(0)))
        found = findings_for(b.build(), "vl-reset-read")
        assert len(found) == 2
        assert all(f.severity is Severity.WARNING for f in found)

    def test_explicit_vl_is_clean(self):
        assert findings_for(strip_program(), "vl-reset-read") == []

    def test_clobber_between_vector_ops_in_loop(self):
        b = AsmBuilder("clobber")
        x = b.data("x", 1024)
        b.mov(Immediate(0), areg(0))
        b.mov(Immediate(300), areg(7))
        b.mov(Immediate(0), areg(5))
        with b.strip_loop(areg(7), areg(5)):
            b.vload(b.mem(x, areg(5)), vreg(0))
            b.set_vl(Immediate(5))
            b.vstore(vreg(0), b.mem(x, areg(5)))
        found = findings_for(b.build(), "vl-clobber")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def _chained_block(self, first_vl, second_vl):
        b = AsmBuilder("revl")
        x = b.data("x", 256)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(first_vl))
        b.vload(b.mem(x, areg(0)), vreg(0))
        b.set_vl(Immediate(second_vl))
        b.vstore(vreg(0), b.mem(x, areg(0)))
        return b.build()

    def test_redundant_vl_resetup_warns(self):
        found = findings_for(self._chained_block(4, 4), "vl-redundant")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "re-asserts" in found[0].message

    def test_changed_vl_is_not_redundant(self):
        found = findings_for(self._chained_block(4, 8), "vl-redundant")
        assert found == []

    def test_asserting_the_reset_value_is_not_redundant(self):
        # The first explicit VL write is the *fix* for vl-reset-read,
        # even when it matches the architectural reset value.
        b = AsmBuilder("assert-reset")
        x = b.data("x", 256)
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(128))
        b.vload(b.mem(x, areg(0)), vreg(0))
        assert findings_for(b.build(), "vl-redundant") == []

    def test_scalar_only_block_is_exempt(self):
        b = AsmBuilder("scalar-only")
        b.mov(Immediate(0), areg(0))
        b.set_vl(Immediate(4))
        b.set_vl(Immediate(4))
        b.mov(Immediate(1), areg(1))
        assert findings_for(b.build(), "vl-redundant") == []

    def test_compiled_kernels_have_no_redundant_vl(self):
        from repro.workloads import ALL_WORKLOADS, compile_spec

        for spec in ALL_WORKLOADS:
            program = compile_spec(spec).program
            assert findings_for(program, "vl-redundant") == []


class TestSchedule:
    def test_vector_mov_is_rejected(self):
        found = findings_for(vector_mov_program(), "schedule")
        assert len(found) == 1
        assert found[0].severity is Severity.ERROR
        assert "timing" in found[0].message

    def test_compiled_kernels_schedule_cleanly(self):
        assert findings_for(strip_program(), "schedule") == []


class TestPairRules:
    def test_validate_chime_flags_excess_pair_reads(self):
        b = AsmBuilder("pairs")
        chime = types.SimpleNamespace(
            instructions=[
                b.vadd(vreg(0), vreg(4), vreg(1)),
                b.vmul(vreg(0), vreg(4), vreg(2)),
            ]
        )
        problems = _validate_chime(chime, DEFAULT_RULES)
        assert any("reads of vector pair" in p for p in problems)

    def test_validate_chime_flags_double_pipe_use(self):
        b = AsmBuilder("pipes")
        chime = types.SimpleNamespace(
            instructions=[
                b.vadd(vreg(0), vreg(1), vreg(2)),
                b.vadd(vreg(3), vreg(1), vreg(6)),
            ]
        )
        problems = _validate_chime(chime, DEFAULT_RULES)
        assert any("add pipe" in p for p in problems)

    def test_legal_chime_is_clean(self):
        b = AsmBuilder("legal")
        chime = types.SimpleNamespace(
            instructions=[b.vadd(vreg(0), vreg(1), vreg(2))]
        )
        assert _validate_chime(chime, DEFAULT_RULES) == []

    def test_strip_program_has_no_pair_conflicts(self):
        assert findings_for(strip_program(), "pair-conflict") == []


class TestMemoryOverlap:
    def test_small_shift_same_base_warns(self):
        found = findings_for(overlap_program(disp_b=1), "mem-overlap")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING
        assert "1 elements apart" in found[0].message

    def test_shift_beyond_strip_length_is_safe(self):
        # trips cap the strip at 4 elements; a 5-element shift can
        # never land in the same strip
        options = LintOptions(trips=(4,))
        assert (
            findings_for(overlap_program(disp_b=5), "mem-overlap", options)
            == []
        )

    def test_shift_within_strip_length_still_warns(self):
        options = LintOptions(trips=(40,))
        found = findings_for(
            overlap_program(disp_b=5), "mem-overlap", options
        )
        assert len(found) == 1

    def test_disjoint_residues_are_safe(self):
        # stride 2 with an odd shift: the accesses interleave
        assert (
            findings_for(
                overlap_program(disp_b=1, stride=2), "mem-overlap"
            )
            == []
        )

    def test_different_base_registers_are_info(self):
        found = findings_for(
            overlap_program(disp_b=0, same_base=False), "mem-overlap"
        )
        assert len(found) == 1
        assert found[0].severity is Severity.INFO
        assert "different address registers" in found[0].message

    def test_store_then_reload_is_info(self):
        found = findings_for(forwarding_program(), "mem-overlap")
        assert len(found) == 1
        assert found[0].severity is Severity.INFO
        assert "reloaded" in found[0].message


class TestDeadCode:
    def test_unused_vector_load_is_a_dead_store(self):
        b = AsmBuilder("dead")
        x = b.data("x", 1024)
        b.mov(Immediate(300), areg(7))
        b.mov(Immediate(0), areg(5))
        with b.strip_loop(areg(7), areg(5)):
            b.vload(b.mem(x, areg(5)), vreg(0))
            b.vload(b.mem(x, areg(5), 512), vreg(3))  # never used
            b.vstore(vreg(0), b.mem(x, areg(5)))
        found = findings_for(b.build(), "dead-store")
        assert len(found) == 1
        assert "v3" in found[0].message

    def test_self_move_anchor_is_exempt(self):
        b = AsmBuilder("anchor")
        b.mov(areg(1), areg(1))
        program = b.build()
        assert findings_for(program, "dead-store") == []

    def test_unreachable_block_is_flagged(self):
        found = findings_for(unreachable_program(), "unreachable")
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING


class TestFindingOutput:
    def test_format_includes_location_and_check(self):
        found = findings_for(uninit_program(), "uninit-read")
        text = found[0].format()
        assert text.startswith("uninit:1: error: [uninit-read]")

    def test_to_dict_round_trips_severity(self):
        found = findings_for(uninit_program(), "uninit-read")
        payload = found[0].to_dict()
        assert payload["severity"] == "error"
        assert payload["check"] == "uninit-read"

    def test_findings_sorted_most_severe_first(self):
        program = vector_mov_program()
        findings = lint_program(program)
        severities = [int(f.severity) for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_analysis_is_memoized_per_program(self):
        program = strip_program()
        assert analyze_program(program) is analyze_program(program)
