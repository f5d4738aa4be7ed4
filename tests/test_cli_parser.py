"""The option-table parser against argparse: whenever the table parser
returns a namespace it is the one argparse returns, and whenever argparse
exits (help or an error) the table parser declines."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsep.cli import _SUBCOMMANDS, _command, _parse_well_formed
from permsep.usage import _build_parser

BIG_INT = "9" * 5000  # past CPython's default int-to-str limit of 4,300 digits
# (valid, invalid) values of each kind; a choice's valid values are its own.
VALUES = {
    int: (["0", "3", "12", "+5", " 7", "1_0"], ["-1", "x", "1.5", "", BIG_INT]),
    str: (["3,2", "1", "2,1;1", "all", "lemmas", "a b", ""], ["-1", "-", "--alpha"]),
}
OTHER = ["-h", "--help", "--", "--bogus", "--N", "--lambda", "--float", "-1", "3"]


def argparse_namespace(argv: list[str]) -> dict | None:
    """``vars()`` of what argparse parses from ``argv``, as `permsep.cli.main`
    builds it, or None if argparse exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(_build_parser(argv[0] if argv else None).parse_args(argv))
        except SystemExit:
            return None


@st.composite
def calls(draw) -> list[str]:
    """A subcommand, now and then misspelt, and its options in any order,
    some left out and some repeated: mostly exact names and valid values,
    and now and then an abbreviation, ``--opt=value``, a bad value, help,
    ``--`` or a stranger."""
    name = draw(st.sampled_from(list(_SUBCOMMANDS)))
    _, _, options = _command(name)
    argv = [draw(st.sampled_from([name] * 8 + [name[:3], "nope"]))]
    rows = draw(st.permutations(options)) + draw(st.lists(st.sampled_from(options), max_size=2))
    rarely = st.integers(0, 7).map(lambda k: k == 0)
    for flag, _, kind, default, _ in rows:
        if draw(rarely) or default is not ... and draw(st.booleans()):
            continue
        valid, invalid = (kind, ["bad"]) if isinstance(kind, tuple) else VALUES.get(kind, ([], []))
        value = draw(st.sampled_from(invalid if draw(rarely) and invalid else valid or ["x"]))
        spelling = draw(st.sampled_from(["exact"] * 10 + ["abbrev", "equals", "other"]))
        if spelling == "equals":
            argv.append(f"{flag}={value}")
            continue
        other = draw(st.sampled_from(OTHER))
        argv.append({"exact": flag, "abbrev": flag[:4], "other": other}[spelling])
        if kind is not bool:
            argv.append(value)
    return argv


def assert_agree(argv: list[str]) -> dict | None:
    table = _parse_well_formed(argv)
    expected = argparse_namespace(argv)
    if table is not None:
        assert vars(table) == expected, argv
    if expected is None:
        assert table is None, argv
    return table


@settings(max_examples=400, deadline=None)
@given(calls())
@example(["ncycle", "--n", BIG_INT, "--alpha", "1"])
@example(["ncycle", "--n", "3", "--alpha", "1", "--n", "4", "--float", "--float"])
@example(["table", "--n", "4", "--method", "both", "--method", "bad"])
@example(["sep-prob", "--lambda", "3,2", "--alpha", "1", "--"])
@example(["verify", "--max-n", "-1"])
@example(["lift", "--lambda", "3,2", "--r", "-1", "--alpha", "1"])
@example(["sep-prob", "--lambda"])
@example(["verify"])
@example([])
def test_table_parser_agrees_with_argparse(argv):
    assert_agree(argv)


CORPUS = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize("argv", [case["argv"] for case in json.loads(CORPUS.read_text())],
                         ids=lambda argv: " ".join(argv))
def test_every_golden_query_skips_argparse(argv):
    assert assert_agree(argv) is not None
