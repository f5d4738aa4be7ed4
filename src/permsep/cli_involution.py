"""The ``involution`` subcommand: the count-based probability of
`permsep.variants` and the paper's printed form beside it.

The printed form is the count-based probability over (2N - m)!, so the
handler needs no second derivation and no binomial basis.  It is followed by
its declaration, in the format `permsep.cli` documents; `permsep.cli`
imports this module only to run it or to print help.
"""

from __future__ import annotations

import math
from typing import TextIO

from .cli import _ALPHA, _FLOAT, EXIT_OK, _emit_json, _parse_alpha, _record, _result_records

PRINTED_INVOLUTION_NOTE = (
    "printed involution probability differs from the count-based value by "
    "exactly (2N - m)!; the count-based value matches brute force"
)


def _cmd_involution(args, out: TextIO) -> int:
    from .variants import separation_probability_involution

    alpha = _parse_alpha(args.alpha)
    params = {"N": args.pairs, "alpha": list(alpha)}
    res = separation_probability_involution(args.pairs, alpha)
    # the paper's printed sum, `crosscheck.involution_probability_printed_form`
    printed = res.probability / math.factorial(2 * args.pairs - sum(alpha))
    note = [PRINTED_INVOLUTION_NOTE] if printed != res.probability else []
    records, _ = _result_records("involution", params, [res], args.float, note)
    records.append(
        _record("involution", params, method="printed-form", probability=printed,
                warnings=note, with_float=args.float)
    )
    _emit_json(records, out)
    return EXIT_OK


_INVOLUTION = (_cmd_involution, "left factor a uniform fixed-point-free involution",
               (("--N", "pairs", int, ..., "number of 2-cycles"), _ALPHA, _FLOAT))
