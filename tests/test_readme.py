"""The README's library tour runs as written and prints what it claims,
and every flag its CLI examples show is an option of that subcommand."""

import argparse
import ast
import re
from pathlib import Path

import numpy as np

from relsyn import cli

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


def unknown_flags(text: str, parser: argparse.ArgumentParser) -> list:
    """(command line, flag) for each ``--flag`` on a ``relsyn ...`` line
    of `text`'s code blocks that is not an option of its subcommand;
    a subcommand that does not exist is reported by its name."""
    found = []
    for block in re.findall(r"```\w*\n(.*?)```", text, re.S):
        for line in block.splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] != ["relsyn"]:
                continue
            sub = parser
            for word in words[1:]:
                subs = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
                if not subs:
                    break
                if word not in subs[0].choices:
                    found.append((line, word))
                    break
                sub = subs[0].choices[word]
            for flag in re.findall(r"--[\w-]+", " ".join(words)):
                if flag not in sub._option_string_actions:
                    found.append((line, flag))
    return found


def test_readme_cli_flags_are_options_of_their_subcommand():
    assert unknown_flags(README.read_text(), cli._build_parser()) == []


def test_removed_flag_and_subcommand_are_found():
    text = (
        "```bash\n"
        "relsyn ring-sweep --n 3 --config sweep.cfg  # --commented is not a flag\n"
        "relsyn youla check b.bundle --laplacian\n"
        "relsyn solve problem.bundle [--out-dir DIR]\n"
        "relsyn sweep --n 3\n"
        "```\n"
        "relsyn solve --outside-a-block\n"
    )
    assert [flag for _, flag in unknown_flags(text, cli._build_parser())] == [
        "--config",
        "--laplacian",
        "sweep",
        "--n",
    ]
