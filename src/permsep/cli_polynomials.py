"""The ``gtable`` and ``hz`` subcommands, which evaluate
`permsep.polynomials` and load no `permsep.formulas`.

Each handler is followed by its subcommand's declaration, in the format
`permsep.cli` documents; `permsep.cli` imports this module only to run one of
these handlers or to print help.
"""

from __future__ import annotations

from typing import TextIO

from .cli import _N, EXIT_OK, _emit_json, _record


def _cmd_gtable(args, out: TextIO) -> int:
    from .polynomials import gen_series_table

    table = gen_series_table(args.n, args.m, args.k)
    entries = [
        {"partition": list(lam), "r": r, "coefficient": str(table[lam, r])}
        for lam, r in sorted(table, key=lambda key: (key[1], key[0]))
    ]
    params = {"n": args.n, "m": args.m, "k": args.k}
    details = {"entries": entries}
    record = _record("gtable", params, method="generating-series", details=details)
    _emit_json([record], out)
    return EXIT_OK


_GTABLE = (_cmd_gtable, "dump the generating-series coefficient table",
           (_N, ("--m", "m", int, ..., None), ("--k", "k", int, ..., None)))


def _cmd_hz(args, out: TextIO) -> int:
    from .polynomials import one_face_map_series

    series = one_face_map_series(args.pairs)
    details = {
        "binomial_basis": {str(r): str(c) for r, c in sorted(series.coeffs.items())},
        "monomial": [str(c) for c in series.to_monomial()],
    }
    record = _record("hz", {"N": args.pairs}, method="one-face-maps", details=details)
    _emit_json([record], out)
    return EXIT_OK


_HZ = (_cmd_hz, "one-face map vertex polynomial", (("--N", "pairs", int, ..., "number of edges"),))
