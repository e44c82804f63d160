"""Every subcommand accepts exactly the long flags its row of the option
table declares, spelled in full: argparse's prefix abbreviation is off,
so no prefix of a flag is a flag of its own, and a flag added later
cannot change what an existing command line means. The cases are derived
from ``build_parser()``, not from a hand-kept list.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from satsvm.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


COMMANDS = sorted(_subparsers(build_parser()))


def _long_flags(parser) -> dict:
    """Each long flag of ``parser`` and its action."""
    return {s: a for a in parser._actions for s in a.option_strings if s.startswith("--")}


def _unique_prefixes(flags) -> list[str]:
    """The strict prefixes, three characters or longer, that start exactly
    one of ``flags``: the spellings abbreviation would accept."""
    return [flag[:k] for flag in flags for k in range(3, len(flag))
            if sum(other.startswith(flag[:k]) for other in flags) == 1]


@pytest.mark.parametrize("command", ["", *COMMANDS], ids=["satsvm", *COMMANDS])
def test_no_prefix_of_a_flag_is_accepted(command, capsys):
    parser = build_parser()
    sp = _subparsers(parser)[command] if command else parser
    prefixes = _unique_prefixes(_long_flags(sp))
    assert prefixes  # every parser has a flag longer than three characters
    for prefix in prefixes:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, prefix, "1"] if command else [prefix, COMMANDS[0]])
        assert exc.value.code == 2, prefix
        err = capsys.readouterr().err
        assert err.startswith("usage: satsvm") and prefix in err.splitlines()[-1], err


@pytest.mark.parametrize("command", COMMANDS)
def test_every_declared_flag_parses_in_full(command, capsys):
    parser = build_parser()
    for flag, action in _long_flags(_subparsers(parser)[command]).items():
        if flag == "--help":
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag])
            assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: satsvm {command}")
        elif action.nargs == 0:  # a switch takes no value
            assert getattr(parser.parse_args([command, flag]), action.dest) is action.const, flag
        else:
            text = action.choices[0] if action.choices else "1"
            want = action.type(text) if action.type else text
            for argv in ([flag, text], [f"{flag}={text}"]):
                assert getattr(parser.parse_args([command, *argv]), action.dest) == want, argv


@pytest.mark.parametrize("argv,refused", [
    (["sweep", "--input", "d.csv", "--lam", "2", "--a", "3"], "--lam 2 --a 3"),
    (["grid", "--input", "d.csv", "--lambda", "2"], "--lambda 2"),
], ids=["sweep-lam-a", "grid-lambda"])
def test_a_shortened_grid_flag_is_refused_before_any_file_is_read(argv, refused, tmp_path, capsys):
    # both read as the flags of the grids that set a and lam while
    # abbreviation was on
    argv = [*argv, "--output", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: satsvm")
    assert [line for line in err.splitlines() if not line.startswith(" ")][1:] == [
        f"satsvm: error: unrecognized arguments: {refused}"]
    assert list(tmp_path.iterdir()) == []


def _readme_commands() -> list[str]:
    """The ``satsvm`` command lines of the README's CLI example block,
    continuation lines joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("satsvm ")]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert {shlex.split(line)[1] for line in commands} == set(COMMANDS)
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
