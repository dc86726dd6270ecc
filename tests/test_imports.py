"""No module of relsyn imports another module's private name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relsyn"

#: Private helpers that every module shares on purpose.
SHARED = {("lti", "_as_matrix"), ("lti", "_freeze")}


def test_no_private_name_crosses_a_module():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                crossings += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and (node.module, alias.name) not in SHARED
                ]
    assert crossings == []
