"""Golden CLI corpus: queries at n = 5-3000 must print exactly the recorded
stdout.

``tests/data/cli_golden.json`` holds a list of ``{"argv", "stdout"}`` cases.
The ``sep-prob``, ``lift``, ``strong``, ``connection`` and ``hz`` cases were
recorded when every weak count still came from the full power-sum/monomial
transition matrix; the ``gtable`` and ``involution`` cases were recorded
while the series table and the binomial-basis polynomial were still custom
record classes.  The six cases at n = 30-290 (three ``sep-prob``, one
``lift``, one ``strong``, one ``connection``, the six before the next five)
were recorded while every weak count still summed a length-weight table
against the t-profile of the cycle type, just before the hook-character
sum replaced that route.  The next five cases (``ncycle`` at n = 126, a
four-block ``pcycles``, ``sep-prob --method both`` with the reordering
warning, ``table --float`` and a CSV ``table --method both``) were recorded
while every record was still written by ``json.dump(..., indent=2)`` and
all eleven subcommands still lived in `permsep.cli`, just before the
record writer and `permsep.subcommands` replaced them.  The
``connection`` case at n = 300 was recorded while every connection
coefficient was still the strong probability at m = n rescaled, built from
n weak counts, just before the hook sum with the weights h_r(alpha)
replaced that route.  The last three cases are ``involution`` at N = 3 with
m = 2N - 1 (both records equal, no note), at N = 4 with probability 0 (no
note although 2N - m = 2) and at N = 200 with the note, recorded while the
printed form was still the literal sum, just before it became the
count-based probability over (2N - m)!.  The five cases at n = 1000-3000
(``ncycle`` at n = 2000 and at n = 1000 with two singletons, ``sep-prob``
at n = 3000, a ``lift`` to n = 800 and a ``connection`` at n = 2000) were
recorded while the hook sum still carried r! (n-1-r)! through one loop over
r and ``ncycle`` still evaluated the paper's two-full-cycle closed form,
just before binary splitting and the count of the class (n) replaced them.
Any change in a digit, a key order or a warning fails the comparison.
"""

import io
import json
import pathlib

import pytest

from permsep.cli import EXIT_OK, main

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
CASES = json.loads(CORPUS.read_text())


def _run(argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_corpus(case):
    code, text = _run(case["argv"])
    assert code == EXIT_OK
    assert text == case["stdout"]

