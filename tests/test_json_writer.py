"""The record writer prints exactly what ``json.dumps(value, indent=2)``
prints for every value a record can hold, and refuses every other value."""

import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsep import cli

# The text records hold: warnings are fixed text or lists of ints, so every
# string is printable ASCII with no quote or backslash.
TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
SCALARS = TEXT | st.integers()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example("lambda [3, 2] sorted to partition [3, 2]; (2N - m)! ~`'{}")
@example([[], {}, {"": []}, [{}], {"a": {}}])
@example({"n": -(10**40), "zero": 0, "one": [1]})
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
    "value",
    [1.5, (1, 2), {"a": [0.0]}, {1: "a"}, b"x", Fraction(1, 2), {"a": {"b": (3,)}},
     True, None, 'a "quote', "back\\slash", "a\ttab", "del\x7f", "é", {("a",): 1}],
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
