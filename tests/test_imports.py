"""The package imports only the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import hdtcam

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_declared_dependencies():
    offending = []
    for path in sorted(Path(hdtcam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offending += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] not in ALLOWED]
    assert not offending, offending
