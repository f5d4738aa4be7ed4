"""Command-line interface: compute, tabulate, and verify.

Every computing subcommand emits a JSON envelope
``{"format": "permsep-records-v1", "records": [...]}`` on stdout; ``table``
can emit CSV instead.  Counts are decimal strings and probabilities are
"p/q" strings in lowest terms, so records round-trip losslessly; ``--float``
adds a 15-significant-digit decimal rendering (display only).  ``verify``
prints one PASS/FAIL line per criterion group and nothing else, so its output
is byte-identical for any ``--threads`` value.

Exit codes: 0 success, 1 verification mismatch (including ``--method both``
disagreement), 2 invalid arguments, 3 oracle budget exceeded.

Each subcommand imports the modules it runs when it runs: the formula
subcommands never load the oracles, the verification suites, the strong
layer or the symmetric-function matrices, so a fresh process pays only for
its own subcommand.
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


def _sep_records(
    lam, alpha, method: str, threads: int, with_float: bool, base_warnings: list[str]
) -> tuple[list[dict], bool]:
    """Records for one separation query; returns (records, mismatch flag)."""
    records = []
    results: list[fm.SepResult] = []
    if method in ("formula", "both"):
        results.append(fm.separation_probability(lam, alpha))
    if method in ("oracle", "both"):
        from .oracles import oracle_separated_pair_count
        from .separation import block_tuple_count

        count = oracle_separated_pair_count(lam, alpha, threads=threads)
        space = block_tuple_count(sum(lam), alpha) * conjugacy_class_size(lam)
        results.append(
            fm.SepResult(
                count=count, probability=Fraction(count, space), method="oracle"
            )
        )
    mismatch = len({r.probability for r in results}) > 1
    for res in results:
        warnings = base_warnings + list(res.warnings)
        if mismatch:
            warnings.append("methods disagree; reporting all values")
        records.append(
            _record(
                "sep-prob",
                {"lambda": list(lam), "alpha": list(alpha)},
                method=res.method,
                count=res.count,
                probability=res.probability,
                warnings=warnings,
                with_float=with_float,
            )
        )
    return records, mismatch


def _cmd_sep_prob(args, out: TextIO) -> int:
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    records, mismatch = _sep_records(
        lam, alpha, args.method, args.threads, args.float, warnings
    )
    _emit_json(records, out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_ncycle(args, out: TextIO) -> int:
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    res = fm.separation_probability_two_cycles(args.n, alpha)
    _emit_json(
        [
            _record(
                "ncycle",
                {"n": args.n, "alpha": list(alpha)},
                method=res.method,
                count=res.count,
                probability=res.probability,
                warnings=res.warnings,
                with_float=args.float,
            )
        ],
        out,
    )
    return EXIT_OK


def _cmd_pcycles(args, out: TextIO) -> int:
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    res = fm.separation_probability_p_cycles(args.n, args.p, alpha)
    _emit_json(
        [
            _record(
                "pcycles",
                {"n": args.n, "p": args.p, "alpha": list(alpha)},
                method=res.method,
                count=res.count,
                probability=res.probability,
                warnings=res.warnings,
                with_float=args.float,
            )
        ],
        out,
    )
    return EXIT_OK


def _cmd_involution(args, out: TextIO) -> int:
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    params = {"N": args.pairs, "alpha": list(alpha)}
    res = fm.separation_probability_involution(args.pairs, alpha)
    printed = fm.involution_probability_printed_form(args.pairs, alpha)
    records = [
        _record(
            "involution",
            params,
            method=res.method,
            count=res.count,
            probability=res.probability,
            warnings=res.warnings,
            with_float=args.float,
        ),
        _record(
            "involution",
            params,
            method="printed-form",
            probability=printed,
            warnings=[fm.PRINTED_INVOLUTION_NOTE] if printed != res.probability else [],
            with_float=args.float,
        ),
    ]
    _emit_json(records, out)
    return EXIT_OK


def _cmd_lift(args, out: TextIO) -> int:
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    res = fm.add_fixed_points_probability(lam, args.r, alpha)
    _emit_json(
        [
            _record(
                "lift",
                {"lambda": list(lam), "r": args.r, "alpha": list(alpha)},
                method=res.method,
                count=res.count,
                probability=res.probability,
                warnings=warnings + list(res.warnings),
                with_float=args.float,
            )
        ],
        out,
    )
    return EXIT_OK


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
    alpha = as_composition(_parse_parts(args.alpha, "--alpha"), allow_empty=False)
    value = connection_coefficient(lam, alpha)
    _emit_json(
        [
            _record(
                "connection",
                {"lambda": list(lam), "alpha": list(alpha)},
                method="strong-system",
                count=value,
                warnings=warnings,
            )
        ],
        out,
    )
    return EXIT_OK


def _cmd_gtable(args, out: TextIO) -> int:
    table = fm.gen_series_table(args.n, args.m, args.k)
    entries = [
        {"partition": list(lam), "r": r, "coefficient": str(c)}
        for (lam, r), c in sorted(
            table.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])
        )
    ]
    _emit_json(
        [
            _record(
                "gtable",
                {"n": args.n, "m": args.m, "k": args.k},
                method="generating-series",
                details={"entries": entries},
            )
        ],
        out,
    )
    return EXIT_OK


def _cmd_hz(args, out: TextIO) -> int:
    series = fm.one_face_map_series(args.pairs)
    monomial = series.to_monomial()
    details = {
        "binomial_basis": {str(r): str(int(c)) for r, c in sorted(series.coeffs.items())},
        "monomial": [str(int(c)) for c in monomial],
    }
    _emit_json(
        [
            _record(
                "hz",
                {"N": args.pairs},
                method="one-face-maps",
                details=details,
            )
        ],
        out,
    )
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
    warnings: list[str] = []
    lam = (
        _parse_lambda(args.lam, warnings) if args.lam else (args.n,)
    )
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
        records, mismatch = _sep_records(
            lam, alpha, args.method, args.threads, args.float, list(warnings)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsep",
        description="Exact separation probabilities for products of random permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, threads=False, want_float=True):
        if threads:
            p.add_argument("--threads", type=int, default=1, help="oracle worker threads")
        if want_float:
            p.add_argument(
                "--float",
                action="store_true",
                help="also print a 15-significant-digit decimal (display only)",
            )

    p = sub.add_parser("sep-prob", help="separation probability for one cycle type")
    p.add_argument("--lambda", dest="lam", required=True, help="cycle type, e.g. 2,2")
    p.add_argument("--alpha", required=True, help="block sizes, e.g. 1,1")
    p.add_argument(
        "--method", choices=("formula", "oracle", "both"), default="formula"
    )
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_sep_prob)

    p = sub.add_parser("ncycle", help="product of two uniform full cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_ncycle)

    p = sub.add_parser("pcycles", help="left factor uniform with p cycles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_pcycles)

    p = sub.add_parser(
        "involution", help="left factor a uniform fixed-point-free involution"
    )
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of 2-cycles")
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("lift", help="add fixed points to the cycle type")
    p.add_argument("--lambda", dest="lam", required=True, help="base type, parts >= 2")
    p.add_argument("--r", type=int, required=True, help="fixed points to add")
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("strong", help="strong separation probability table")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--m", type=int, required=True, help="total block size")
    add_common(p)
    p.set_defaults(func=_cmd_strong)

    p = sub.add_parser("connection", help="full-cycle factorization count")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--alpha", required=True, help="cycle type of the product, size n")
    add_common(p, want_float=False)
    p.set_defaults(func=_cmd_connection)

    p = sub.add_parser("gtable", help="dump the generating-series coefficient table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, want_float=False)
    p.set_defaults(func=_cmd_gtable)

    p = sub.add_parser("hz", help="one-face map vertex polynomial")
    p.add_argument("--N", dest="pairs", type=int, required=True, help="number of edges")
    add_common(p, want_float=False)
    p.set_defaults(func=_cmd_hz)

    p = sub.add_parser("verify", help="run the cross-verification suites")
    p.add_argument(
        "--suite",
        default="all",
        help='"all" or one suite name from permsep.verification.SUITE_ORDER',
    )
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="batch separation probabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None, help="cycle type (default: one n-cycle)")
    p.add_argument(
        "--alphas",
        default="all",
        help='"all" or semicolon-separated block profiles, e.g. "1,1;2,1"',
    )
    p.add_argument("--max-m", dest="max_m", type=int, default=None)
    p.add_argument(
        "--method", choices=("formula", "oracle", "both"), default="formula"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, threads=True)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except BudgetExceededError as exc:
        print(f"permsep: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"permsep: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
