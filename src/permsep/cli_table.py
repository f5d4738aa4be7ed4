"""The ``table`` subcommand: batch separation probabilities, each computed as
``sep-prob`` computes it.

Its oracle path enumerates serially.  The handler is followed by its
declaration, in the format `permsep.cli` documents; `permsep.cli` imports
this module only to run it or to print help.
"""

from __future__ import annotations

from typing import TextIO

from .cli import _FLOAT, _METHOD, _N, EXIT_MISMATCH, EXIT_OK, _emit_json, _parse_alpha
from .cli import _parse_lambda, _result_records, _sep_results
from .partitions import partitions


def _cmd_table(args, out: TextIO) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    lam, warnings = _parse_lambda(args.lam) if args.lam else ((args.n,), [])
    if sum(lam) != args.n:
        raise ValueError("--lambda must be a partition of --n")
    if args.max_m is not None and not (args.alphas == "all" and 1 <= args.max_m <= args.n):
        raise ValueError("--max-m needs --alphas all and must lie in 1..n")
    if args.alphas == "all":
        alphas = [a for m in range(1, (args.max_m or args.n) + 1) for a in partitions(m)]
    else:
        alphas = [_parse_alpha(piece, "--alphas") for piece in args.alphas.split(";")]
        if any(sum(alpha) > args.n for alpha in alphas):
            raise ValueError("total block size exceeds n")
    if args.method != "formula":
        from .oracles import PAIR_MAX_N, _check_size
        _check_size(args.n, PAIR_MAX_N)
    mismatch = False

    def records():  # streamed, so every argument error is raised above
        nonlocal mismatch
        for alpha in alphas:
            params = {"lambda": list(lam), "alpha": list(alpha)}
            results = _sep_results(lam, alpha, args.method)
            rows, disagree = _result_records("sep-prob", params, results, args.float, warnings)
            mismatch = mismatch or disagree
            yield from rows

    if args.format == "json":
        _emit_json(records(), out)
    else:
        import csv

        writer = csv.writer(out)
        writer.writerow(["lambda", "alpha", "m", "k", "count", "probability", "method"])
        for record in records():
            shape, blocks = record["parameters"]["lambda"], record["parameters"]["alpha"]
            writer.writerow(
                [",".join(map(str, shape)), ",".join(map(str, blocks)), sum(blocks), len(blocks)]
                + [record.get(key, "") for key in ("count", "probability", "method")]
            )
    return EXIT_MISMATCH if mismatch else EXIT_OK


_TABLE = (_cmd_table, "batch separation probabilities", (
    _N,
    ("--lambda", "lam", str, None, "cycle type (default: one n-cycle)"),
    ("--alphas", "alphas", str, "all",
     '"all" or semicolon-separated block profiles, e.g. "1,1;2,1"'),
    ("--max-m", "max_m", int, None, None),
    _METHOD,
    ("--format", "format", ("json", "csv"), "json", None),
    _FLOAT,
))
