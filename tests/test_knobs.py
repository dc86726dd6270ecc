"""Every parameter of relsyn that has a default is listed here.

The library runs one fixed pipeline, so a parameter that callers may
leave out is a second way of calling a function.  A new one needs an
edit to DEFAULTED, where it is seen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "relsyn"

#: (module, function, parameter) for each parameter with a default;
#: methods are named Class.method.
DEFAULTED = {
    ("cli", "main", "argv"),
    ("errors", "DecompositionError.__init__", "tap"),
    ("errors", "StructureViolationError.__init__", "certificate"),
    ("fileio", "number", "kind"),
    ("fileio", "plant_from_blocks", "c2"),
    ("lti", "fir_compose", "horizon"),
    ("structure", "ConstraintSystem.satisfied_by", "tol"),
}


def defaulted(source: str, module: str) -> set:
    """(module, qualified function, parameter) for each defaulted
    parameter, positional or keyword-only, at any nesting depth."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                positional = a.posonlyargs + a.args
                for arg in positional[len(positional) - len(a.defaults) :]:
                    found.add((module, name, arg.arg))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.add((module, name, arg.arg))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source, filename=module), "")
    return found


def test_defaulted_parameters_are_the_listed_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= defaulted(path.read_text(), path.stem)
    assert found == DEFAULTED


def test_methods_nested_and_keyword_only_defaults_are_found():
    source = (
        "def f(a, b=1, *, c, d=2):\n"
        "    def g(e=3): pass\n"
        "class C:\n"
        "    def m(self, h, i=None): pass\n"
        "if True:\n"
        "    def k(j=0): pass\n"
    )
    assert defaulted(source, "m") == {
        ("m", "f", "b"),
        ("m", "f", "d"),
        ("m", "f.g", "e"),
        ("m", "C.m", "i"),
        ("m", "k", "j"),
    }
