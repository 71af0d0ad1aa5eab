"""The shipped machine family and name/path resolution.

Built-in machines live as TOML files under ``data/`` next to this
module; each one is a config artifact, not a code fork.  The registry
memoizes loads (descriptions are frozen), resolves ``--machine``
arguments that may be a built-in name, a file path, a comma list, or
``all``, and provides :func:`tuned_options` — the one adjustment the
*compiler* needs per machine (strip-mine length clamped to the
machine's maximum vector length).
"""

from __future__ import annotations

import os

from .. import memo
from ..compiler.options import CompilerOptions
from ..errors import MachineFileError
from ..machine.config import MachineConfig
from .loader import load_machine_file
from .schema import MachineDescription

#: Directory holding the shipped ``*.toml`` machine files.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_BUILTIN_CACHE = memo.Memo("machines.builtin", 64)


def builtin_names() -> list[str]:
    """Names of the shipped machines, sorted, baseline first."""
    names = sorted(
        os.path.splitext(entry)[0]
        for entry in os.listdir(DATA_DIR)
        if entry.endswith(".toml")
    )
    # The paper baseline leads every listing and every sweep axis.
    if "c240" in names:
        names.remove("c240")
        names.insert(0, "c240")
    return names


def builtin_machine(name: str) -> MachineDescription:
    """Load one shipped machine by name (memoized).

    Raises :class:`~repro.errors.MachineFileError` for unknown names,
    and if a shipped file's ``name`` key disagrees with its filename
    (the registry's lookup key would otherwise lie).
    """
    cached = _BUILTIN_CACHE.get(name)
    if cached is not None:
        return cached
    path = os.path.join(DATA_DIR, f"{name}.toml")
    if not all(c.isalnum() or c in "-_" for c in name) or \
            not os.path.isfile(path):
        raise MachineFileError(
            f"unknown machine {name!r}; built-ins: "
            f"{', '.join(builtin_names())}"
        )
    description = load_machine_file(path)
    if description.name != name:
        raise MachineFileError(
            f"machine file declares name {description.name!r}",
            source=path,
        )
    description = MachineDescription(
        name=description.name,
        title=description.title,
        doc=description.doc,
        config=description.config,
        source="<builtin>",
    )
    _BUILTIN_CACHE.put(name, description)
    return description


def machine(name_or_path: str) -> MachineDescription:
    """Resolve a built-in name or a machine-file path."""
    if os.sep in name_or_path or name_or_path.endswith(
        (".toml", ".json")
    ):
        return load_machine_file(name_or_path)
    return builtin_machine(name_or_path)


def machine_names() -> list[str]:
    """Public alias for :func:`builtin_names` (CLI/table listings)."""
    return builtin_names()


def resolve_machines(text: str) -> list[MachineDescription]:
    """Resolve a ``--machine`` argument into one or more machines.

    Accepts ``all`` (every built-in), a comma-separated list of names
    and/or paths, or a single name/path.
    """
    if text.strip().lower() == "all":
        return [builtin_machine(name) for name in builtin_names()]
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise MachineFileError(
            "empty --machine argument (name, path, comma list, or 'all')"
        )
    resolved = [machine(part) for part in parts if part]
    seen: set[str] = set()
    unique: list[MachineDescription] = []
    for description in resolved:
        if description.digest not in seen:
            seen.add(description.digest)
            unique.append(description)
    return unique


def tuned_options(
    options: CompilerOptions, config: MachineConfig
) -> CompilerOptions:
    """Clamp the compiler's strip-mine length to the machine's max VL.

    Codegen bakes ``options.vector_length`` into stream advances, so a
    machine with a shorter vector register file must compile with a
    shorter strip; a longer register file is left alone (the schedule
    was requested at that strip length).
    """
    if options.vector_length <= config.max_vl:
        return options
    return options.replace(vector_length=config.max_vl)
