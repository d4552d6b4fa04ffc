"""The package runs on numpy alone: every import in ``src/poseadapt`` is
relative, from the standard library, or of numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "poseadapt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path):
    """(line, module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}:{line}: {module}" for path in files
               for line, module in absolute_imports(path)
               if module.partition(".")[0] not in ALLOWED]
    assert outside == []
