"""The seven subcommands beyond the single-result queries: ``involution``,
``strong``, ``connection``, ``gtable``, ``hz``, ``verify`` and ``table``.

`permsep.cli` imports this module only to build one of their subparsers, so
``sep-prob``, ``ncycle``, ``pcycles`` and ``lift`` never compile it.
"""

from __future__ import annotations

from typing import TextIO

from .cli import EXIT_MISMATCH, EXIT_OK, _add_float, _add_method, _emit_json, _parse_alpha
from .cli import _parse_lambda, _parse_parts, _record, _result_records, _sep_results
from .partitions import as_composition, partitions


def _cmd_involution(args, out: TextIO) -> int:
    from . import polynomials as pl

    alpha = _parse_alpha(args.alpha)
    params = {"N": args.pairs, "alpha": list(alpha)}
    res = pl.separation_probability_involution(args.pairs, alpha)
    printed = pl.involution_probability_printed_form(args.pairs, alpha)
    note = [pl.PRINTED_INVOLUTION_NOTE] if printed != res.probability else []
    records, _ = _result_records("involution", params, [res], args.float)
    records.append(
        _record("involution", params, method="printed-form", probability=printed,
                warnings=note, with_float=args.float)
    )
    _emit_json(records, out)
    return EXIT_OK


def _cmd_strong(args, out: TextIO) -> int:
    from .strong import strong_probability_table

    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    table = strong_probability_table(lam, args.m)
    records = (
        _record("strong", {"lambda": list(lam), "m": args.m, "beta": list(beta)},
                method="strong-system", probability=table[beta], warnings=warnings,
                with_float=args.float)
        for beta in sorted(table, reverse=True)
    )
    _emit_json(records, out)
    return EXIT_OK


def _cmd_connection(args, out: TextIO) -> int:
    from .strong import connection_coefficient

    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = _parse_alpha(args.alpha)
    value = connection_coefficient(lam, alpha)
    params = {"lambda": list(lam), "alpha": list(alpha)}
    record = _record("connection", params, method="strong-system", count=value, warnings=warnings)
    _emit_json([record], out)
    return EXIT_OK


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


def _cmd_hz(args, out: TextIO) -> int:
    from .polynomials import one_face_map_series

    series = one_face_map_series(args.pairs)
    details = {
        "binomial_basis": {str(r): str(int(c)) for r, c in sorted(series.coeffs.items())},
        "monomial": [str(int(c)) for c in series.to_monomial()],
    }
    record = _record("hz", {"N": args.pairs}, method="one-face-maps", details=details)
    _emit_json([record], out)
    return EXIT_OK


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


def _table_rows(args) -> tuple[list[dict], bool]:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings) if args.lam else (args.n,)
    if sum(lam) != args.n:
        raise ValueError("--lambda must be a partition of --n")
    if args.max_m is not None and not 1 <= args.max_m <= args.n:
        raise ValueError("--max-m must lie in 1..n")
    if args.alphas == "all":
        alphas = [a for m in range(1, (args.max_m or args.n) + 1) for a in partitions(m)]
    else:
        pieces = [_parse_parts(piece, "--alphas") for piece in args.alphas.split(";")]
        alphas = [as_composition(parts, allow_empty=False) for parts in pieces]
    rows, any_mismatch = [], False
    for alpha in alphas:
        params = {"lambda": list(lam), "alpha": list(alpha)}
        results = _sep_results(lam, alpha, args.method)
        records, mismatch = _result_records("sep-prob", params, results, args.float, warnings)
        rows.extend(records)
        any_mismatch = any_mismatch or mismatch
    return rows, any_mismatch


def _cmd_table(args, out: TextIO) -> int:
    rows, mismatch = _table_rows(args)
    if args.format == "json":
        _emit_json(rows, out)
    else:
        import csv

        writer = csv.writer(out)
        writer.writerow(["lambda", "alpha", "m", "k", "count", "probability", "method"])
        for record in rows:
            lam, alpha = record["parameters"]["lambda"], record["parameters"]["alpha"]
            writer.writerow(
                [",".join(map(str, lam)), ",".join(map(str, alpha)), sum(alpha), len(alpha)]
                + [record.get(key, "") for key in ("count", "probability", "method")]
            )
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _add_involution(p) -> None:
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of 2-cycles")
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_involution)


def _add_strong(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--m", type=int, required=True, help="total block size")
    _add_float(p)
    p.set_defaults(func=_cmd_strong)


def _add_connection(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--alpha", required=True, help="cycle type of the product, size n")
    p.set_defaults(func=_cmd_connection)


def _add_gtable(p) -> None:
    for name in ("--n", "--m", "--k"):
        p.add_argument(name, type=int, required=True)
    p.set_defaults(func=_cmd_gtable)


def _add_hz(p) -> None:
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of edges")
    p.set_defaults(func=_cmd_hz)


def _add_verify(p) -> None:
    suite_help = '"all" or one suite name from permsep.verification.SUITE_ORDER'
    p.add_argument("--suite", default="all", help=suite_help)
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    threads_help = "worker threads the checks are mapped over"
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.set_defaults(func=_cmd_verify)


def _add_table(p) -> None:
    p.add_argument("--n", type=int, required=True)
    lam_help = "cycle type (default: one n-cycle)"
    p.add_argument("--lambda", dest="lam", default=None, help=lam_help)
    alphas_help = '"all" or semicolon-separated block profiles, e.g. "1,1;2,1"'
    p.add_argument("--alphas", default="all", help=alphas_help)
    p.add_argument("--max-m", dest="max_m", type=int, default=None)
    _add_method(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_float(p)
    p.set_defaults(func=_cmd_table)
