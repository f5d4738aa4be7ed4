"""The ``strong`` and ``connection`` subcommands, which evaluate
`permsep.strong`.

Each handler is followed by its subcommand's declaration, in the format
`permsep.cli` documents; `permsep.cli` imports this module only to run one of
these handlers or to print help.
"""

from __future__ import annotations

from typing import TextIO

from .cli import _FLOAT, EXIT_OK, _emit_json, _parse_alpha, _parse_lambda, _record

_LAMBDA = ("--lambda", "lam", str, ..., None)


def _cmd_strong(args, out: TextIO) -> int:
    from .strong import strong_probability_table

    lam, warnings = _parse_lambda(args.lam)
    table = strong_probability_table(lam, args.m)
    records = (
        _record("strong", {"lambda": list(lam), "m": args.m, "beta": list(beta)},
                method="strong-system", probability=table[beta], warnings=warnings,
                with_float=args.float)
        for beta in sorted(table, reverse=True)
    )
    _emit_json(records, out)
    return EXIT_OK


_STRONG = (_cmd_strong, "strong separation probability table",
           (_LAMBDA, ("--m", "m", int, ..., "total block size"), _FLOAT))


def _cmd_connection(args, out: TextIO) -> int:
    from .strong import connection_coefficient

    lam, warnings = _parse_lambda(args.lam)
    alpha = _parse_alpha(args.alpha)
    value = connection_coefficient(lam, alpha)
    params = {"lambda": list(lam), "alpha": list(alpha)}
    record = _record("connection", params, method="strong-system", count=value, warnings=warnings)
    _emit_json([record], out)
    return EXIT_OK


_CONNECTION = (_cmd_connection, "full-cycle factorization count",
               (_LAMBDA, ("--alpha", "alpha", str, ..., "cycle type of the product, size n")))
