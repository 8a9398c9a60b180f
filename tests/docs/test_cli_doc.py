"""``docs/cli.md`` must name every real CLI flag, and no stale ones.

Two directions, per subcommand: every ``--flag`` the argparse parsers
define appears in the subcommand's section of the doc (so new flags
cannot ship undocumented), and every ``--flag`` the doc names is accepted
by the corresponding ``--help`` (so removed flags cannot linger). The
``--help`` text itself is the source of truth — the doc is parsed, the
parser is introspected.  Arguments restricted to ``choices`` are checked
the same way, value by value, against their row of the flag table.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser

DOC = Path(__file__).resolve().parents[2] / "docs" / "cli.md"
SUBCOMMANDS = ("run", "report", "list", "serve", "worker", "migrate")

FLAG = re.compile(r"`(--[a-z][a-z0-9-]*)`")
VALUE = re.compile(r"`([^`]+)`")
ROW = re.compile(r"^\|(?P<name>[^|]*)\|(?P<meaning>.*)\|\s*$", re.MULTILINE)


def doc_sections() -> dict:
    """Map subcommand name -> its ``## <name>`` section text."""
    text = DOC.read_text()
    sections = {}
    parts = re.split(r"^##\s+(\w+)\s*$", text, flags=re.MULTILINE)
    for name, body in zip(parts[1::2], parts[2::2]):
        sections[name] = body
    return sections


def subcommand_parser(subcommand: str):
    """The argparse sub-parser behind ``python -m repro <subcommand>``."""
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices[subcommand]


def parser_flags(subcommand: str) -> set:
    """Every long option a subcommand's parser accepts (minus --help)."""
    sub = subcommand_parser(subcommand)
    flags = set()
    for action in sub._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                flags.add(option)
    return flags


def test_doc_exists_with_all_subcommand_sections():
    sections = doc_sections()
    for name in SUBCOMMANDS:
        assert name in sections, f"docs/cli.md lacks a '## {name}' section"


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_parser_flag_is_documented(subcommand):
    section = doc_sections()[subcommand]
    documented = set(FLAG.findall(section))
    missing = parser_flags(subcommand) - documented
    assert not missing, (
        f"flags of '{subcommand}' missing from docs/cli.md: {sorted(missing)}"
    )


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_no_stale_documented_flags(subcommand):
    section = doc_sections()[subcommand]
    documented = set(FLAG.findall(section))
    stale = documented - parser_flags(subcommand)
    assert not stale, (
        f"docs/cli.md documents flags '{subcommand}' does not accept: {sorted(stale)}"
    )


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_help_output_mentions_every_documented_flag(subcommand):
    """The acceptance check: --help text covers the documented flags."""
    help_text = subcommand_parser(subcommand).format_help()
    for flag in FLAG.findall(doc_sections()[subcommand]):
        assert flag in help_text, (
            f"documented flag {flag} absent from 'python -m repro {subcommand} --help'"
        )


def choice_arguments() -> list:
    """``(subcommand, action)`` for every argument restricted to choices."""
    return [
        (subcommand, action)
        for subcommand in SUBCOMMANDS
        for action in subcommand_parser(subcommand)._actions
        if action.choices is not None
    ]


def argument_names(action) -> set:
    """The names a flag-table row uses for ``action`` (options or dest)."""
    return set(action.option_strings) or {action.dest}


def documented_values(subcommand: str, action) -> set:
    """Backticked non-flag values in the meaning cell of ``action``'s row."""
    for row in ROW.finditer(doc_sections()[subcommand]):
        if set(VALUE.findall(row["name"])) & argument_names(action):
            return {
                value
                for value in VALUE.findall(row["meaning"])
                if not value.startswith("-")
            }
    raise AssertionError(
        f"docs/cli.md '{subcommand}' has no table row for {sorted(argument_names(action))}"
    )


CHOICE_ARGUMENTS = [
    pytest.param(subcommand, action, id=f"{subcommand}-{min(argument_names(action))}")
    for subcommand, action in choice_arguments()
]


def test_choice_arguments_are_found():
    found = {
        (subcommand, name)
        for subcommand, action in choice_arguments()
        for name in argument_names(action)
    }
    assert {("run", "--executor"), ("list", "what")} <= found


@pytest.mark.parametrize("subcommand,action", CHOICE_ARGUMENTS)
def test_every_choice_is_documented(subcommand, action):
    missing = {str(choice) for choice in action.choices} - documented_values(
        subcommand, action
    )
    assert not missing, (
        f"choices of '{subcommand} {min(argument_names(action))}' missing "
        f"from docs/cli.md: {sorted(missing)}"
    )


@pytest.mark.parametrize("subcommand,action", CHOICE_ARGUMENTS)
def test_no_stale_documented_choices(subcommand, action):
    stale = documented_values(subcommand, action) - {
        str(choice) for choice in action.choices
    }
    assert not stale, (
        f"docs/cli.md documents values '{subcommand} {min(argument_names(action))}' "
        f"does not accept: {sorted(stale)}"
    )
