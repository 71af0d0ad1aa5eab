"""Register model for the Convex C-series vector ISA.

The C-240 CPU (paper §2) exposes:

* eight address registers ``a0``–``a7`` (in the Address/Scalar Unit),
* eight scalar registers ``s0``–``s7``,
* eight vector registers ``v0``–``v7`` of 128 64-bit elements each,
* the vector-length register ``VL``,
* the vector-stride register ``VS``,
* the vector merge register ``VM``.

Vector registers are organized in *pairs* ``{v0,v4} {v1,v5} {v2,v6}
{v3,v7}`` (paper §3.3); the chime rules limit each pair to at most two
reads and one write per chime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import RegisterError

#: Number of registers in each file.
NUM_ADDRESS_REGISTERS = 8
NUM_SCALAR_REGISTERS = 8
NUM_VECTOR_REGISTERS = 8

#: Elements per vector register.
VECTOR_REGISTER_LENGTH = 128


class RegisterClass(enum.Enum):
    """The register files of the C-240."""

    ADDRESS = "a"
    SCALAR = "s"
    VECTOR = "v"
    VECTOR_LENGTH = "VL"
    VECTOR_STRIDE = "VS"
    VECTOR_MERGE = "VM"

    @property
    def is_special(self) -> bool:
        """True for the single-instance VL/VS/VM registers."""
        return self in (
            RegisterClass.VECTOR_LENGTH,
            RegisterClass.VECTOR_STRIDE,
            RegisterClass.VECTOR_MERGE,
        )


@dataclass(frozen=True, order=True)
class Register:
    """A single architectural register.

    ``index`` is 0–7 for the a/s/v files and 0 for the special
    registers.  Instances are immutable and hashable so they can be used
    in read/write sets.
    """

    rclass: RegisterClass
    index: int = 0

    def __post_init__(self):
        # registers key the analyses' register sets and maps, so the
        # (enum, int) hash is precomputed once
        object.__setattr__(
            self, "_hash", hash((self.rclass, self.index))
        )
        if self.rclass.is_special:
            if self.index != 0:
                raise RegisterError(
                    f"special register {self.rclass.value} has no index, "
                    f"got {self.index}"
                )
            return
        limit = {
            RegisterClass.ADDRESS: NUM_ADDRESS_REGISTERS,
            RegisterClass.SCALAR: NUM_SCALAR_REGISTERS,
            RegisterClass.VECTOR: NUM_VECTOR_REGISTERS,
        }[self.rclass]
        if not 0 <= self.index < limit:
            raise RegisterError(
                f"register index {self.index} out of range for "
                f"{self.rclass.name.lower()} file (0..{limit - 1})"
            )

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        """Assembly name, e.g. ``v3`` or ``VL``."""
        if self.rclass.is_special:
            return self.rclass.value
        return f"{self.rclass.value}{self.index}"

    @property
    def is_vector(self) -> bool:
        return self.rclass is RegisterClass.VECTOR

    @property
    def is_scalar(self) -> bool:
        return self.rclass is RegisterClass.SCALAR

    @property
    def is_address(self) -> bool:
        return self.rclass is RegisterClass.ADDRESS

    @property
    def pair_index(self) -> int:
        """Vector-pair id 0..3; pairs are {v0,v4} {v1,v5} {v2,v6} {v3,v7}."""
        if not self.is_vector:
            raise RegisterError(f"{self.name} is not a vector register")
        return self.index % 4

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse a register name like ``a5``, ``s0``, ``v7``, ``VL``."""
        stripped = text.strip()
        upper = stripped.upper()
        if upper == "VL":
            return cls(RegisterClass.VECTOR_LENGTH)
        if upper == "VS":
            return cls(RegisterClass.VECTOR_STRIDE)
        if upper == "VM":
            return cls(RegisterClass.VECTOR_MERGE)
        if len(stripped) >= 2 and stripped[0] in "asv" and stripped[1:].isdigit():
            rclass = {
                "a": RegisterClass.ADDRESS,
                "s": RegisterClass.SCALAR,
                "v": RegisterClass.VECTOR,
            }[stripped[0]]
            return cls(rclass, int(stripped[1:]))
        raise RegisterError(f"not a register name: {text!r}")


def areg(index: int) -> Register:
    """Address register ``a<index>``."""
    return Register(RegisterClass.ADDRESS, index)


def sreg(index: int) -> Register:
    """Scalar register ``s<index>``."""
    return Register(RegisterClass.SCALAR, index)


def vreg(index: int) -> Register:
    """Vector register ``v<index>``."""
    return Register(RegisterClass.VECTOR, index)


#: The vector-length register.
VL = Register(RegisterClass.VECTOR_LENGTH)

#: The vector-stride register.
VS = Register(RegisterClass.VECTOR_STRIDE)

#: The vector-merge register.
VM = Register(RegisterClass.VECTOR_MERGE)

#: All vector registers, in index order.
ALL_VECTOR_REGISTERS = tuple(vreg(i) for i in range(NUM_VECTOR_REGISTERS))

#: The four vector register pairs of the C-240 (paper §3.3).
VECTOR_PAIRS = tuple(
    (vreg(i), vreg(i + 4)) for i in range(NUM_VECTOR_REGISTERS // 2)
)


def vector_pair_of(register: Register) -> tuple[Register, Register]:
    """Return the pair ``(v<i>, v<i+4>)`` containing ``register``."""
    return VECTOR_PAIRS[register.pair_index]
