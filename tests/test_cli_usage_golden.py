"""Golden usage corpus: help, usage errors and argument refusals must print
exactly the recorded text and exit with the recorded code.

``tests/data/cli_usage_golden.json`` holds a list of ``{"argv", "code",
"stdout", "stderr"}`` cases, recorded with CPython 3.11 while every call
still went through argparse, just before well-formed calls were parsed from
the option tables: no arguments, ``--help``, ``-h`` and an unknown
subcommand; ``--help``, no options and ``--bogus`` for each of the eleven
subcommands; a bad choice, a bad int, an option without its value and a
negative ``--r``.  The last seven cases are the argument refusals of
``lift`` (a base part of 1, blocks larger than n + r), ``involution`` (N of
0 and -2, blocks larger than 2N) and ``ncycle`` (n of 0, blocks larger than
n), recorded while ``lift`` and ``involution`` still computed their counts
by the lifting relation and the involution series.  ``COLUMNS`` is pinned
to 80 because argparse wraps its text to the terminal width.
"""

import contextlib
import io
import json
import pathlib

import pytest

from permsep.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_usage_golden.json"
CASES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "(none)" for c in CASES])
def test_usage_matches_corpus(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"], case["stderr"])
