"""Command-line interface: compute, tabulate, and verify.

Every computing subcommand emits a JSON envelope
``{"format": "permsep-records-v1", "records": [...]}`` on stdout; ``table``
can emit CSV instead.  Counts are decimal strings and probabilities are
"p/q" strings in lowest terms, so records round-trip losslessly; ``--float``
adds a 15-significant-digit decimal rendering (display only); counts of any
length are rendered, whatever CPython's int-to-str digit limit.  ``verify``
prints one PASS/FAIL line per criterion group and nothing else; ``--threads``
is the number of worker threads its checks are mapped over, and the output is
byte-identical for any value.  The oracle paths of ``sep-prob`` and ``table``
enumerate serially.

Exit codes: 0 success, 1 verification mismatch (including ``--method both``
disagreement), 2 invalid arguments, 3 oracle budget exceeded.

Each subcommand imports the modules it runs when it runs, so a fresh process
pays only for its own subcommand: ``sep-prob`` loads `permsep.formulas`, and
``--method oracle`` adds `permsep.oracles` and `permsep.perms`.  The parser
is built the same way: `_build_parser` iterates one table of (name, help,
add-arguments function), and a call whose first argument names a subcommand
builds only that subparser; no arguments, ``-h`` or an unknown name build
all of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import formulas as fm
from .errors import BudgetExceededError
from .partitions import (
    as_composition,
    conjugacy_class_size,
    partitions,
    sorted_partition,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_parts(text: str, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
    if any(p < 1 for p in parts):
        raise ValueError(f"{what} parts must be positive, got {text!r}")
    return parts


def _parse_lambda(text: str, warnings: list[str]) -> tuple[int, ...]:
    parts = _parse_parts(text, "--lambda")
    canonical = sorted_partition(parts)
    if canonical != parts:
        warnings.append(
            f"lambda {list(parts)} sorted to partition {list(canonical)}"
        )
    return canonical


def _parse_alpha(text: str) -> tuple[int, ...]:
    return as_composition(_parse_parts(text, "--alpha"), allow_empty=False)


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _float_str(value: Fraction) -> str:
    return format(value.numerator / value.denominator, ".15g")


def _record(
    operation: str,
    parameters: dict,
    *,
    method: str | None = None,
    count: int | None = None,
    probability: Fraction | None = None,
    details: dict | None = None,
    warnings: Iterable[str] = (),
    with_float: bool = False,
) -> dict:
    record: dict = {"operation": operation, "parameters": parameters}
    if method is not None:
        record["method"] = method
    if count is not None:
        record["count"] = str(count)
    if probability is not None:
        record["probability"] = _frac_str(probability)
        if with_float:
            record["probability_float"] = _float_str(probability)
    if details is not None:
        record["details"] = details
    record["warnings"] = list(warnings)
    return record


def _emit_json(records: list[dict], out: TextIO) -> None:
    envelope = {"format": "permsep-records-v1", "records": records}
    json.dump(envelope, out, indent=2)
    out.write("\n")


def _result_records(
    operation: str,
    parameters: dict,
    results: list[fm.SepResult],
    with_float: bool,
    warnings: Iterable[str] = (),
) -> tuple[list[dict], bool]:
    """One record per result, and whether their probabilities disagree."""
    mismatch = len({r.probability for r in results}) > 1
    records = []
    for res in results:
        notes = [*warnings, *res.warnings]
        if mismatch:
            notes.append("methods disagree; reporting all values")
        records.append(
            _record(
                operation,
                parameters,
                method=res.method,
                count=res.count,
                probability=res.probability,
                warnings=notes,
                with_float=with_float,
            )
        )
    return records, mismatch


def _emit_results(
    out: TextIO,
    operation: str,
    parameters: dict,
    results: list[fm.SepResult],
    with_float: bool,
    warnings: Iterable[str] = (),
) -> int:
    """The one emitter of ``sep-prob``, ``ncycle``, ``pcycles`` and ``lift``:
    a record per result, two only for ``sep-prob --method both``, where
    disagreeing probabilities exit with `EXIT_MISMATCH`."""
    records, mismatch = _result_records(
        operation, parameters, results, with_float, warnings
    )
    _emit_json(records, out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _sep_results(lam, alpha, method: str) -> list[fm.SepResult]:
    """The results of one separation query, formula first."""
    if sum(alpha) > sum(lam):
        raise ValueError("total block size exceeds n")
    results = []
    if method in ("formula", "both"):
        results.append(fm.separation_probability(lam, alpha))
    if method in ("oracle", "both"):
        from .oracles import oracle_separated_pair_count

        count = oracle_separated_pair_count(lam, alpha)
        space = fm.pair_space(sum(lam), alpha, conjugacy_class_size(lam))
        results.append(fm.SepResult(count, Fraction(count, space), "oracle"))
    return results


def _cmd_sep_prob(args, out: TextIO) -> int:
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = _parse_alpha(args.alpha)
    results = _sep_results(lam, alpha, args.method)
    params = {"lambda": list(lam), "alpha": list(alpha)}
    return _emit_results(out, "sep-prob", params, results, args.float, warnings)


def _cmd_ncycle(args, out: TextIO) -> int:
    alpha = _parse_alpha(args.alpha)
    res = fm.separation_probability_two_cycles(args.n, alpha)
    params = {"n": args.n, "alpha": list(alpha)}
    return _emit_results(out, "ncycle", params, [res], args.float)


def _cmd_pcycles(args, out: TextIO) -> int:
    alpha = _parse_alpha(args.alpha)
    res = fm.separation_probability_p_cycles(args.n, args.p, alpha)
    params = {"n": args.n, "p": args.p, "alpha": list(alpha)}
    return _emit_results(out, "pcycles", params, [res], args.float)


def _cmd_involution(args, out: TextIO) -> int:
    from .polynomials import (
        PRINTED_INVOLUTION_NOTE,
        involution_probability_printed_form,
        separation_probability_involution,
    )

    alpha = _parse_alpha(args.alpha)
    params = {"N": args.pairs, "alpha": list(alpha)}
    res = separation_probability_involution(args.pairs, alpha)
    printed = involution_probability_printed_form(args.pairs, alpha)
    records, _ = _result_records("involution", params, [res], args.float)
    records.append(
        _record(
            "involution",
            params,
            method="printed-form",
            probability=printed,
            warnings=[PRINTED_INVOLUTION_NOTE] if printed != res.probability else [],
            with_float=args.float,
        )
    )
    _emit_json(records, out)
    return EXIT_OK


def _cmd_lift(args, out: TextIO) -> int:
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = _parse_alpha(args.alpha)
    res = fm.add_fixed_points_probability(lam, args.r, alpha)
    params = {"lambda": list(lam), "r": args.r, "alpha": list(alpha)}
    return _emit_results(out, "lift", params, [res], args.float, warnings)


def _cmd_strong(args, out: TextIO) -> int:
    from .strong import strong_probability_table

    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    table = strong_probability_table(lam, args.m)
    records = [
        _record(
            "strong",
            {"lambda": list(lam), "m": args.m, "beta": list(beta)},
            method="strong-system",
            probability=prob,
            warnings=warnings,
            with_float=args.float,
        )
        for beta, prob in sorted(table.items(), key=lambda kv: kv[0], reverse=True)
    ]
    _emit_json(records, out)
    return EXIT_OK


def _cmd_connection(args, out: TextIO) -> int:
    from .strong import connection_coefficient

    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = _parse_alpha(args.alpha)
    value = connection_coefficient(lam, alpha)
    params = {"lambda": list(lam), "alpha": list(alpha)}
    record = _record(
        "connection", params, method="strong-system", count=value, warnings=warnings
    )
    _emit_json([record], out)
    return EXIT_OK


def _cmd_gtable(args, out: TextIO) -> int:
    from .polynomials import gen_series_table

    table = gen_series_table(args.n, args.m, args.k)
    entries = [
        {"partition": list(lam), "r": r, "coefficient": str(c)}
        for (lam, r), c in sorted(
            table.items(), key=lambda kv: (kv[0][1], kv[0][0])
        )
    ]
    params = {"n": args.n, "m": args.m, "k": args.k}
    details = {"entries": entries}
    record = _record("gtable", params, method="generating-series", details=details)
    _emit_json([record], out)
    return EXIT_OK


def _cmd_hz(args, out: TextIO) -> int:
    from .polynomials import one_face_map_series

    series = one_face_map_series(args.pairs)
    monomial = series.to_monomial()
    details = {
        "binomial_basis": {str(r): str(int(c)) for r, c in sorted(series.coeffs.items())},
        "monomial": [str(int(c)) for c in monomial],
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
        max_m = args.max_m or args.n
        alphas = [a for m in range(1, max_m + 1) for a in partitions(m)]
    else:
        alphas = [
            as_composition(_parse_parts(piece, "--alphas"), allow_empty=False)
            for piece in args.alphas.split(";")
        ]
    rows = []
    any_mismatch = False
    for alpha in alphas:
        records, mismatch = _result_records(
            "sep-prob",
            {"lambda": list(lam), "alpha": list(alpha)},
            _sep_results(lam, alpha, args.method),
            args.float,
            warnings,
        )
        any_mismatch = any_mismatch or mismatch
        rows.extend(records)
    return rows, any_mismatch


def _cmd_table(args, out: TextIO) -> int:
    rows, mismatch = _table_rows(args)
    if args.format == "json":
        _emit_json(rows, out)
    else:
        import csv

        writer = csv.writer(out)
        writer.writerow(
            ["lambda", "alpha", "m", "k", "count", "probability", "method"]
        )
        for record in rows:
            alpha = record["parameters"]["alpha"]
            writer.writerow(
                [
                    ",".join(str(p) for p in record["parameters"]["lambda"]),
                    ",".join(str(p) for p in alpha),
                    sum(alpha),
                    len(alpha),
                    record.get("count", ""),
                    record.get("probability", ""),
                    record.get("method", ""),
                ]
            )
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _add_float(p) -> None:
    p.add_argument(
        "--float",
        action="store_true",
        help="also print a 15-significant-digit decimal (display only)",
    )


def _add_method(p) -> None:
    p.add_argument(
        "--method", choices=("formula", "oracle", "both"), default="formula"
    )


def _add_sep_prob(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True, help="cycle type, e.g. 2,2")
    p.add_argument("--alpha", required=True, help="block sizes, e.g. 1,1")
    _add_method(p)
    _add_float(p)
    p.set_defaults(func=_cmd_sep_prob)


def _add_ncycle(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_ncycle)


def _add_pcycles(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_pcycles)


def _add_involution(p) -> None:
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of 2-cycles")
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_involution)


def _add_lift(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True, help="base type, parts >= 2")
    p.add_argument("--r", type=int, required=True, help="fixed points to add")
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_lift)


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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_gtable)


def _add_hz(p) -> None:
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of edges")
    p.set_defaults(func=_cmd_hz)


def _add_verify(p) -> None:
    p.add_argument(
        "--suite",
        default="all",
        help='"all" or one suite name from permsep.verification.SUITE_ORDER',
    )
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument(
        "--threads", type=int, default=1, help="worker threads the checks are mapped over"
    )
    p.set_defaults(func=_cmd_verify)


def _add_table(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None, help="cycle type (default: one n-cycle)")
    p.add_argument(
        "--alphas",
        default="all",
        help='"all" or semicolon-separated block profiles, e.g. "1,1;2,1"',
    )
    p.add_argument("--max-m", dest="max_m", type=int, default=None)
    _add_method(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_float(p)
    p.set_defaults(func=_cmd_table)


# (name, help, add-arguments function), in the order ``--help`` lists them.
_SUBCOMMANDS = (
    ("sep-prob", "separation probability for one cycle type", _add_sep_prob),
    ("ncycle", "product of two uniform full cycles", _add_ncycle),
    ("pcycles", "left factor uniform with p cycles", _add_pcycles),
    ("involution", "left factor a uniform fixed-point-free involution", _add_involution),
    ("lift", "add fixed points to the cycle type", _add_lift),
    ("strong", "strong separation probability table", _add_strong),
    ("connection", "full-cycle factorization count", _add_connection),
    ("gtable", "dump the generating-series coefficient table", _add_gtable),
    ("hz", "one-face map vertex polynomial", _add_hz),
    ("verify", "run the cross-verification suites", _add_verify),
    ("table", "batch separation probabilities", _add_table),
)


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with just the subcommand named ``only``, or with all of
    them when ``only`` names none; its help and error text are the same
    either way."""
    parser = argparse.ArgumentParser(
        prog="permsep",
        description="Exact separation probabilities for products of random permutations.",
    )
    chosen = [entry for entry in _SUBCOMMANDS if entry[0] == only]
    # Built alone, a subcommand still lists every name in the top-level
    # usage line, which argparse prints for an unrecognized argument.
    names = ",".join(name for name, _, _ in _SUBCOMMANDS)
    metavar = f"{{{names}}}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments in chosen or _SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # Counts can run past CPython's int-to-str limit (4,300 digits by
    # default): lift it while the subcommand runs, then restore it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, out)
    except BudgetExceededError as exc:
        print(f"permsep: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"permsep: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
