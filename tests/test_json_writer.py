"""The record writer prints exactly what ``json.dumps(value, indent=2)``
prints for every value a record can hold, and refuses every other type."""

import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsep import cli

# All of Unicode, lone surrogates included, so quotes, backslashes, control
# characters, DEL and astral code points all turn up.
TEXT = st.text(st.characters(blacklist_categories=()))
SCALARS = TEXT | st.integers() | st.booleans() | st.none()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example('quote " backslash \\ nul \x00 unit \x1f del \x7f   \ud800 \U0001f600 \U0010ffff')
@example([[], {}, {"": []}, [{}], {"a": {}}])
@example({"n": -(10**40), "ok": True, "no": False, "none": None})
def test_writer_matches_json_dumps(value):
    assert cli._json_text(value, "") == json.dumps(value, indent=2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.dictionaries(TEXT, VALUES, max_size=3), max_size=3))
def test_envelope_matches_json_dump(records):
    out = io.StringIO()
    cli._emit_json(iter(records), out)
    envelope = {"format": "permsep-records-v1", "records": records}
    assert out.getvalue() == json.dumps(envelope, indent=2) + "\n"


@pytest.mark.parametrize(
    "value", [1.5, (1, 2), {"a": [0.0]}, {1: "a"}, b"x", Fraction(1, 2), {"a": {"b": (3,)}}]
)
def test_writer_refuses_types_records_never_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value, "")


def test_an_int_past_the_int_to_str_limit_is_written_through_main(monkeypatch):
    big = 7**6000  # 5,071 digits

    def handler(args, out):
        cli._emit_json([{"operation": "ncycle", "count": big}], out)
        return cli.EXIT_OK

    _, help_text, options = cli._SUBCOMMANDS["ncycle"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "ncycle", (handler, help_text, options))
    out = io.StringIO()
    assert cli.main(["ncycle", "--n", "3", "--alpha", "1"], stdout=out) == cli.EXIT_OK
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        envelope = {"format": "permsep-records-v1", "records": [{"operation": "ncycle", "count": big}]}
        want = json.dumps(envelope, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.getvalue() == want
    assert sys.get_int_max_str_digits() == limit
