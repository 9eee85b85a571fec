"""The help and usage-error texts of `cosov`, pinned byte for byte.

`usage_goldens.json` maps each command line (arguments joined by spaces) to
the exit code, stdout and stderr of `cli.main` at a terminal width of 80.
"""

import json
import pathlib

import pytest

from cosovereign.cli import main

GOLDENS = json.loads(pathlib.Path(__file__).with_name("usage_goldens.json")
                     .read_text(encoding="utf-8"))


@pytest.mark.parametrize("line", sorted(GOLDENS))
def test_usage_text(line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(line.split())
    captured = capsys.readouterr()
    assert {"code": code, "stdout": captured.out,
            "stderr": captured.err} == GOLDENS[line]


def test_goldens_cover_every_command():
    commands = GOLDENS["bogus"]["stderr"].split("choose from ")[1]
    commands = {c.strip("')\n") for c in commands.split(", ")}
    assert {line.split()[0] for line in GOLDENS if " " in line} == commands
