"""Public API surface checks: every exported name resolves."""

import ast
import importlib
import pathlib

import pytest

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.machine",
    "repro.lang",
    "repro.compiler",
    "repro.schedule",
    "repro.model",
    "repro.workloads",
    "repro.experiments",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_and_unique(package):
    module = importlib.import_module(package)
    names = list(module.__all__)
    assert len(names) == len(set(names)), package


def test_top_level_analyze_kernel():
    import repro

    analysis = repro.analyze_kernel("lfk12", measure=False)
    assert analysis.spec.number == 12


def test_version_string():
    import repro

    major, *_ = repro.__version__.split(".")
    assert int(major) >= 1


def _cross_package_private_imports():
    """``(module, name, source)`` for each ``_private`` name a module
    imports from a different top-level package of ``repro``."""
    root = pathlib.Path(importlib.import_module("repro").__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        package = parts[:-1]  # what a relative import is relative to
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = package[: len(package) + 1 - node.level] \
                if node.level else ()
            if node.module:
                source += tuple(node.module.split("."))
            if source[:1] != ("repro",) or source[1:2] == parts[1:2]:
                continue
            found += [(".".join(parts), alias.name, ".".join(source))
                      for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_private_names_imported_across_packages():
    # ``repro.X`` may use ``repro.X``'s private helpers, never ``repro.Y``'s:
    # a private name another package needs belongs in the public API.
    assert _cross_package_private_imports() == []
