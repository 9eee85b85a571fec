"""The help and usage-error texts of `cosov`, pinned byte for byte.

`usage_goldens.json` maps each command line (arguments joined by spaces) to
the exit code, stdout and stderr of `cli.main` at a terminal width of 80.
"""

import argparse
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


#: Lines that give `--` as a value.  Python versions part on such a value
#: (3.11's argparse drops it, later ones keep the string), so it is refused
#: before argparse parses and the goldens hold on every version.
DASH_VALUES = ("aaut-relations --F=--", "check hq --q=--", "dim ab -- --",
               "fuse ab ba --format=--", "iso --E=-- --F x",
               "table --max-len=--", "verify-pi --q=--")


@pytest.mark.parametrize("line", DASH_VALUES)
def test_dash_value_is_refused_before_parsing(line, capsys, monkeypatch):
    def parse(*args, **kwargs):
        raise AssertionError(f"argparse parsed {line!r}")
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse)
    code = main(line.split())
    captured = capsys.readouterr()
    assert {"code": code, "stdout": captured.out,
            "stderr": captured.err} == GOLDENS[line]


def test_goldens_cover_every_command():
    commands = GOLDENS["bogus"]["stderr"].split("choose from ")[1]
    commands = {c.strip("')\n") for c in commands.split(", ")}
    assert {line.split()[0] for line in GOLDENS if " " in line} == commands
