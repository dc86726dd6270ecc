"""No module of relsyn uses another module's private name, and importing
relsyn loads no heavy dependency that it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relsyn"

#: Modules that `import relsyn` must not load: each costs import time on
#: every CLI call and benchmark set-up, and relsyn needs none of them.
HEAVY = (
    "scipy.sparse",
    "scipy.signal",
    "scipy.optimize",
    "scipy.special",
    "scipy.stats",
    "matplotlib",
)

#: Private helpers that every module shares on purpose.
SHARED = {("lti", "_as_matrix"), ("lti", "_freeze")}


def private_crossings(source: str, name: str) -> list:
    """`from .mod import _name`, and `mod._name` for a module bound by
    `from . import mod`, outside SHARED."""
    tree = ast.parse(source, filename=name)
    crossings, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_") and (node.module, alias.name) not in SHARED:
                    crossings.append(f"{name}: from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and (modules[node.value.id], node.attr) not in SHARED
        ):
            crossings.append(f"{name}:{node.lineno}: {node.value.id}.{node.attr}")
    return crossings


def test_no_private_name_crosses_a_module():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        crossings += private_crossings(path.read_text(), path.name)
    assert crossings == []


def test_attribute_form_is_caught():
    source = "from . import fileio as io, lti\nio._number('f', '1')\nlti._freeze(x)\n"
    assert private_crossings(source, "m.py") == ["m.py:2: io._number"]


def test_import_loads_no_heavy_module():
    probe = f"import sys, relsyn; print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
