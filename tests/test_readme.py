"""The README's library tour runs as written and prints what it claims."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_matches_its_comments():
    code = library_tour()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # every `name = ...  # -> value` line states the value it computes
    claims = re.findall(r"^(\w+) = .*# -> (.+)$", code, re.M)
    assert ("K", "[[3, 1]]") in claims
    for name, value in claims:
        assert np.array_equal(namespace[name], ast.literal_eval(value)), name
