"""Every optional argument of the relsyn CLI is listed here.

An option is a second spelling of an input that a bundle or config file
could carry, so a new one needs an edit to OPTIONS, where it is seen.
"""

import argparse

from relsyn import cli

#: (subcommand, option) for each optional argument and each optional
#: positional; nested subcommands are named "youla check".
OPTIONS = {
    ("qi", "--map"),
    ("solve", "--out-dir"),
    ("ring-sweep", "--n"),
    ("ring-sweep", "--gamma"),
    ("ring-sweep", "--horizon-q"),
    ("ring-sweep", "--out"),
    ("ring-sweep", "--no-plot"),
}


def options(parser: argparse.ArgumentParser, command: str = "") -> set:
    """(subcommand, option) for every argument a caller may leave out."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= options(sub, f"{command} {name}".strip())
        elif action.option_strings and not action.required:
            found.add((command, max(action.option_strings, key=len)))
        elif not action.option_strings and action.nargs in ("?", "*"):
            found.add((command, action.dest))
    return found


def test_cli_options_are_the_listed_ones():
    assert options(cli._build_parser()) == OPTIONS


def test_nested_optional_and_positional_options_are_found():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    a = sub.add_parser("a")
    a.add_argument("req")
    a.add_argument("opt", nargs="?")
    a.add_argument("--flag", "-f", action="store_true")
    a.add_argument("--must", required=True)
    b = sub.add_parser("b").add_subparsers().add_parser("c")
    b.add_argument("--x")
    assert options(parser) == {("a", "opt"), ("a", "--flag"), ("b c", "--x")}
