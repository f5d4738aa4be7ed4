"""The seven subcommands beyond the single-result queries: ``involution``,
``strong``, ``connection``, ``gtable``, ``hz``, ``verify`` and ``table``.

``verify`` prints one PASS/FAIL line per criterion group and nothing else;
``--threads`` is the number of worker processes its checks are split over,
the caller being one, and the output is byte-identical for any value.  The
oracle paths of ``sep-prob`` and ``table`` enumerate serially.

Each handler is followed by its subcommand's declaration, in the format
`permsep.cli` documents.  `permsep.cli` imports this module to run one of
these handlers, and `permsep.usage` to print help or an error, so a
well-formed ``sep-prob``, ``ncycle``, ``pcycles`` or ``lift`` never compiles it.
``involution`` prints the paper's printed probability as the count-based one
over (2N - m)!, so it loads only what ``table`` loads.
"""

from __future__ import annotations

import math
from typing import TextIO

from .cli import _ALPHA, _FLOAT, _METHOD, _N, EXIT_MISMATCH, EXIT_OK, _emit_json, _parse_alpha
from .cli import _parse_lambda, _record, _result_records, _sep_results
from .formulas import separation_probability_involution
from .partitions import partitions

_LAMBDA = ("--lambda", "lam", str, ..., None)

PRINTED_INVOLUTION_NOTE = (
    "printed involution probability differs from the count-based value by "
    "exactly (2N - m)!; the count-based value matches brute force"
)


def _cmd_involution(args, out: TextIO) -> int:
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


def _cmd_verify(args, out: TextIO) -> int:
    from .verification import run_suites

    results = run_suites([args.suite], max_n=args.max_n, threads=args.threads)
    results = sorted(results, key=lambda r: int(r.criterion))
    for result in results:
        out.write(result.render() + "\n")
    failed = sum(1 for r in results if not r.passed)
    if failed:
        out.write(f"FAILED ({failed} of {len(results)} check groups)\n")
        return EXIT_MISMATCH
    out.write(f"OK ({len(results)} check groups)\n")
    return EXIT_OK


_VERIFY = (_cmd_verify, "run the cross-verification suites", (
    ("--suite", "suite", str, "all",
     '"all" or one suite name from permsep.verification.SUITE_ORDER'),
    ("--max-n", "max_n", int, 6, None),
    ("--threads", "threads", int, 1,
     "worker processes the checks are split over, the caller being one"),
))


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
