"""Every `dln` command in the README's code blocks parses and validates, and
every flag the README names is one `dln` takes."""

import argparse
import dataclasses
import re
import shlex
from pathlib import Path

from dln.cli import _FIELDS, _build_config, _parse_value, build_parser
from dln.experiments import ABLATION_AXES, validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each `dln` line in a fenced block, continuations joined."""
    commands, in_block = [], False
    text = README.read_text().replace("\\\n", " ")
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("dln "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_build_valid_configs():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        validate_config(cfg)
        if args.command == "ablate":
            field = _FIELDS[ABLATION_AXES[args.axis]]
            for raw in args.values.split(","):
                validate_config(dataclasses.replace(
                    cfg, **{field.name: _parse_value(field, raw)}))


# flags the README names for other programs: pip's
OTHER_PROGRAMS = {"--no-build-isolation"}


def test_readme_flags_are_accepted():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {flag for sub in commands.choices.values() for action in sub._actions
                for flag in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", README.read_text()))
    assert OTHER_PROGRAMS <= named
    assert named - OTHER_PROGRAMS <= accepted, sorted(named - OTHER_PROGRAMS - accepted)
