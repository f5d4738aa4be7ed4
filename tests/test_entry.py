"""The process entry, `permsep.__main__.run`: it freezes the collector before
exit, and the rest of a normal exit still happens.  Fresh interpreters run
under ``-X dev``, which shows ResourceWarnings and errors ignored at exit,
and must leave stderr empty but for the query's own message."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from permsep.cli import EXIT_BUDGET, EXIT_OK, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs the package as ``python -m permsep`` does, after registering an atexit
# handler that reports whether the collector was frozen.
ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0))
sys.argv = ["permsep", *{argv!r}]
runpy.run_module("permsep", run_name="__main__", alter_sys=True)
print("after the entry")
"""


def run_dev(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-X", "dev", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_entry_exits_through_atexit_after_its_records():
    argv = ["sep-prob", "--lambda", "4,3,1", "--alpha", "2,1", "--method", "both"]
    proc = run_dev("-c", textwrap.dedent(ENTRY.format(argv=argv)))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    records, handler = proc.stdout.rsplit("}\n", 1)
    assert handler == "atexit: frozen True\n"
    payload = json.loads(records + "}")
    assert [r["method"] for r in payload["records"]] == ["generating-series", "oracle"]


def test_entry_exits_through_atexit_after_a_refusal():
    argv = ["sep-prob", "--lambda", "12", "--alpha", "1", "--method", "oracle"]
    proc = run_dev("-c", textwrap.dedent(ENTRY.format(argv=argv)))
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == "atexit: frozen True\n"
    assert proc.stderr.startswith("permsep: budget exceeded: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_profiler_reports_after_the_entry_exits():
    # cProfile catches the entry's SystemExit and prints its report after
    # the records, which an exit that skipped the interpreter's teardown
    # would lose
    proc = run_dev("-m", "cProfile", "-m", "permsep", "sep-prob", "--lambda", "5,4,3", "--alpha", "1")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    records, profile = proc.stdout.split("\n}\n", 1)
    assert json.loads(records + "}")["records"][0]["probability"] == "1/1"
    assert "function calls" in profile and "Ordered by: " in profile


@pytest.mark.parametrize(
    "argv",
    [["sep-prob", "--lambda", "5,4,3", "--alpha", "2"], ["--help"], ["strong", "--m", "x"]],
    ids=["query", "help", "usage-error"],
)
def test_in_process_main_freezes_nothing(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        main(argv)
    assert gc.get_freeze_count() == 0
