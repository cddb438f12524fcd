"""The parser that main builds, with only the invoked subcommand's
arguments, against the full parser: same help, same usage errors, same
Namespace."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from infodist import cli

COMMANDS = ["mub", "design-check", "disturbance", "info", "frontier", "twirl-check"]
README = Path(__file__).resolve().parent.parent / "README.md"


def _subparsers(parser):
    """Subcommand name -> its parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parse(parser, argv, capsys):
    """(Namespace or None, exit code or None, stdout, stderr) of one parse."""
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    return args, code, out, err


ARGVS = {
    "help": ["--help"],
    "no-argv": [],
    "unknown-command": ["no-such-command"],
    "abbreviated-command": ["fro", "--d", "2"],
    "unrecognized-argument": ["frontier", "--d", "2", "extra"],
    "samples-below-two": ["info", "--povm", "x.json", "--samples", "1"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in COMMANDS},
    **{f"{cmd}-missing-required": [cmd] for cmd in COMMANDS},
}


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
def test_selected_build_answers_like_the_full_build(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli.build_parser(), argv, capsys)
    selected = _parse(cli.build_parser(argv[0] if argv else None), argv, capsys)
    assert selected == full
    assert full[1] in (0, 2) and (full[2] or full[3])


@pytest.mark.parametrize("command", [None, "-h", "no-such-command", *COMMANDS])
def test_only_the_named_subcommand_gets_arguments(command):
    subparsers = _subparsers(cli.build_parser(command))
    assert list(subparsers) == COMMANDS
    populated = [name for name, parser in subparsers.items() if parser._actions]
    assert populated == ([command] if command in COMMANDS else COMMANDS)


def test_main_builds_only_the_invoked_subcommand(monkeypatch, tmp_path):
    built = []

    def spy(command=None):
        built.append(real(command))
        return built[-1]

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["frontier", "--d", "2", "--grid", "2", "--out", str(tmp_path / "c.csv")]) == 0
    assert [name for name, parser in _subparsers(built[0]).items() if parser._actions] == ["frontier"]


def test_readme_command_lines_parse_the_same_under_both_builds():
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("infodist ")]
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    for argv in argvs:
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv), argv
