"""Exception taxonomy for the MACS reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass available; the messages are written to be actionable
(they name the offending instruction, register, or source line).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class IsaError(ReproError):
    """Base class for errors in the instruction-set layer."""


class AsmSyntaxError(IsaError):
    """Raised when assembly text cannot be parsed.

    Attributes
    ----------
    line_number:
        1-based line number within the parsed text, or ``None`` when the
        error is not tied to a specific line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class UnknownOpcodeError(IsaError):
    """Raised when an opcode mnemonic is not in the ISA registry."""


class OperandError(IsaError):
    """Raised when an instruction is built with invalid operands."""


class RegisterError(IsaError):
    """Raised for invalid register names or indices."""


class MachineError(ReproError):
    """Base class for errors in the machine simulator."""


class SimulationError(MachineError):
    """Raised when the simulator encounters an unexecutable program."""


class MachineFileError(MachineError):
    """Raised when a declarative machine-description file is malformed.

    Attributes
    ----------
    source:
        The file path (or ``"<inline>"``) the error is tied to.
    """

    def __init__(self, message: str, source: str | None = None):
        self.source = source
        if source is not None:
            message = f"{source}: {message}"
        super().__init__(message)


class MemoryError_(MachineError):
    """Raised for invalid memory-system configuration or access.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class LangError(ReproError):
    """Base class for errors in the mini-Fortran frontend."""


class LexError(LangError):
    """Raised when source text cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}")


class ParseError(LangError):
    """Raised when a token stream cannot be parsed into an AST."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SemanticError(LangError):
    """Raised for well-formed but meaningless programs.

    Examples: referencing an undeclared array, or indexing a scalar.
    """


class CompileError(ReproError):
    """Base class for errors in the vectorizing compiler."""


class VectorizationError(CompileError):
    """Raised when a loop cannot be vectorized and no fallback exists."""


class RegisterAllocationError(CompileError):
    """Raised when register allocation fails (too much pressure)."""


class ScheduleError(ReproError):
    """Raised when chime partitioning is given malformed input."""


class ModelError(ReproError):
    """Raised for invalid inputs to the MACS bounds model."""


class AnalysisError(ReproError):
    """Raised by the static analyzer for malformed queries or programs
    whose shape the analysis does not support (e.g. count estimation
    over a program with several distinct vector loops)."""


class LintError(AnalysisError):
    """Raised when a program fails lint verification (error-severity
    findings under ``CompilerOptions.verify`` or ``compile --strict``)."""


class WorkloadError(ReproError):
    """Raised for invalid workload (kernel) definitions or parameters."""


class ExperimentError(ReproError):
    """Raised when an experiment harness cannot run as configured."""


class StoreError(ReproError):
    """Raised by the durable artifact store for corruption it cannot
    auto-recover (torn tails are truncated and corrupt records are
    quarantined silently; this is for structural damage beyond that,
    e.g. an unwritable quarantine sidecar)."""


class BudgetExceededError(ReproError):
    """Raised when a watchdog budget is exhausted: the simulator's
    cycle/step ceilings or the sweep scheduler's wall-clock deadline.
    Converts runaway work into a typed, reportable result instead of a
    hang; carries ``budget`` (what ran out) and ``spent``/``limit``
    when known."""

    def __init__(self, message: str, budget: str = "",
                 spent: float | None = None,
                 limit: float | None = None):
        self.budget = budget
        self.spent = spent
        self.limit = limit
        super().__init__(message)


#: Error codes -> process exit codes: a service error's ``exit_code``
#: and the CLI's exit status (docs/robustness.md).
ERROR_EXIT_CODES = {
    "usage": 2,
    "workload": 3,
    "simulation": 4,
    "budget": 4,
    "infrastructure": 5,
    "unavailable": 6,
}


def taxonomy_error_code(exc: ReproError) -> str:
    """Map a taxonomy exception to its error code."""
    if isinstance(exc, BudgetExceededError):
        return "budget"
    if isinstance(exc, MachineError):
        return "simulation"
    if isinstance(exc, (ExperimentError, StoreError)):
        return "infrastructure"
    return "workload"
