"""The command line's options, listed in full.

Each subcommand's option strings (and positional arguments, by name) are
read from ``build_parser()``, so adding or removing a flag shows up here
as an edit to the table.
"""

import argparse

from sudoku_spectra.cli import build_parser

OPTIONS = {
    None: ["--help", "--version", "-h", "command"],
    "realize": ["--h", "--help", "--out", "--t", "--w", "-h"],
    "verify": ["--h", "--help", "--w", "-h", "a", "b"],
    "spectrum": ["--h", "--help", "--mode", "--w", "-h"],
    "sample": ["--format", "--h", "--help", "--seed", "--w", "-h"],
    "pentadoku": ["--format", "--help", "--out", "-h"],
}


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(s for action in parser._actions for s in action.option_strings or [action.dest])


def test_cli_options_are_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {None: _options(parser)}
    found.update((name, _options(sub)) for name, sub in commands.choices.items())
    assert found == OPTIONS
