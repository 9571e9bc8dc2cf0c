"""The runtime imports nothing but the standard library and pslens."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pslens"


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"pslens"}
    modules = {(path.name, name) for path in sorted(SRC.rglob("*.py")) for name in imported_modules(path)}
    assert modules, "no imports found: wrong source directory?"
    assert {(file, name) for file, name in modules if name.split(".")[0] not in allowed} == set()
