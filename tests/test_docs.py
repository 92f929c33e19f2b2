"""Docs: every ``hdtcam`` command in the README parses with the CLI's parser."""

import pathlib
import re
import shlex

from hdtcam import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The ``hdtcam`` commands of the README's ``sh`` blocks, continuation
    lines joined, as argument lists without the program name."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("hdtcam "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits (SystemExit) on an unknown or missing flag
    subcommands = parser._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(subcommands)
