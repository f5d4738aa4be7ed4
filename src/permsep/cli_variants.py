"""The ``pcycles`` and ``lift`` subcommands, which evaluate the formula
variants of `permsep.variants` and print one record each.

Each handler is followed by its subcommand's declaration, in the format
`permsep.cli` documents; `permsep.cli` imports this module only to run one of
these handlers or to print help.  ``involution`` reads the same library
module but prints two records, so its handler has a module of its own
(`permsep.cli_involution`), which these two never compile.
"""

from __future__ import annotations

from typing import TextIO

from .cli import _ALPHA, _FLOAT, _N, _emit_results, _parse_alpha, _parse_lambda


def _cmd_pcycles(args, out: TextIO) -> int:
    from .variants import separation_probability_p_cycles

    alpha = _parse_alpha(args.alpha)
    res = separation_probability_p_cycles(args.n, args.p, alpha)
    params = {"n": args.n, "p": args.p, "alpha": list(alpha)}
    return _emit_results(out, "pcycles", params, [res], args.float)


_PCYCLES = (_cmd_pcycles, "left factor uniform with p cycles",
            (_N, ("--p", "p", int, ..., None), _ALPHA, _FLOAT))


def _cmd_lift(args, out: TextIO) -> int:
    from .variants import add_fixed_points_probability

    lam, warnings = _parse_lambda(args.lam)
    alpha = _parse_alpha(args.alpha)
    res = add_fixed_points_probability(lam, args.r, alpha)
    params = {"lambda": list(lam), "r": args.r, "alpha": list(alpha)}
    return _emit_results(out, "lift", params, [res], args.float, warnings)


_LIFT = (_cmd_lift, "add fixed points to the cycle type", (
    ("--lambda", "lam", str, ..., "base type, parts >= 2"),
    ("--r", "r", int, ..., "fixed points to add"), _ALPHA, _FLOAT))
