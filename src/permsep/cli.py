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
``--method oracle`` adds `permsep.oracles`.  This module holds only the four
single-result queries (``sep-prob``, ``ncycle``, ``pcycles``, ``lift``) and
what every subcommand shares; the other seven live in `permsep.subcommands`.
The parser is built the same way: `_build_parser` iterates one table of
(name, help, add-arguments function), and a call whose first argument names
a subcommand builds only that subparser, importing `permsep.subcommands`
only for one of its seven; no arguments, ``-h`` or an unknown name build all
of them.  Records are written by a small encoder that prints the bytes of
``json.dump(..., indent=2)`` one record at a time, so no subcommand imports
`json`.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from . import formulas as fm
from .errors import BudgetExceededError
from .partitions import as_composition, conjugacy_class_size, sorted_partition

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
        warnings.append(f"lambda {list(parts)} sorted to partition {list(canonical)}")
    return canonical


def _parse_alpha(text: str) -> tuple[int, ...]:
    return as_composition(_parse_parts(text, "--alpha"), allow_empty=False)


def _record(operation: str, parameters: dict, *, method: str | None = None,
            count: int | None = None, probability: Fraction | None = None,
            details: dict | None = None, warnings: Iterable[str] = (),
            with_float: bool = False) -> dict:
    record: dict = {"operation": operation, "parameters": parameters}
    if method is not None:
        record["method"] = method
    if count is not None:
        record["count"] = str(count)
    if probability is not None:
        num, den = probability.numerator, probability.denominator
        record["probability"] = f"{num}/{den}"
        if with_float:
            record["probability_float"] = format(num / den, ".15g")
    if details is not None:
        record["details"] = details
    record["warnings"] = list(warnings)
    return record


_SHORT_ESCAPES = {char: "\\" + code for char, code in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _escape(char: str) -> str:
    """One character as ``json.dumps`` writes it by default, in ASCII."""
    if char in _SHORT_ESCAPES:
        return _SHORT_ESCAPES[char]
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code > 0xFFFF:  # a UTF-16 surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _json_str(text: str) -> str:
    """A JSON string literal; TypeError unless ``text`` is a str."""
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'  # printable ASCII with nothing to escape, as records hold
    return '"' + "".join(map(_escape, text)) + '"'


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested at
    ``indent``: str, int, bool and None in lists and str-keyed dicts; any
    other type raises TypeError, as does a key that is not a str."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        brackets, items = "[]", [_json_text(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [
            f"{_json_str(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit_json(records: Iterable[dict], out: TextIO) -> None:
    """The records envelope, byte for byte as ``json.dump(envelope, out,
    indent=2)`` writes it, plus a newline; one write per record."""
    out.write('{\n  "format": "permsep-records-v1",\n  "records": [')
    separator = "\n    "
    for record in records:
        out.write(separator + _json_text(record, "    "))
        separator = ",\n    "
    out.write("]\n}\n" if separator == "\n    " else "\n  ]\n}\n")


def _result_records(operation: str, parameters: dict, results: list[fm.SepResult],
                    with_float: bool, warnings: Iterable[str] = ()) -> tuple[list[dict], bool]:
    """One record per result, and whether their probabilities disagree."""
    mismatch = len({r.probability for r in results}) > 1
    records = []
    for res in results:
        notes = [*warnings, *res.warnings]
        if mismatch:
            notes.append("methods disagree; reporting all values")
        records.append(
            _record(operation, parameters, method=res.method, count=res.count,
                    probability=res.probability, warnings=notes, with_float=with_float)
        )
    return records, mismatch


def _emit_results(out: TextIO, operation: str, parameters: dict, results: list[fm.SepResult],
                  with_float: bool, warnings: Iterable[str] = ()) -> int:
    """The one emitter of ``sep-prob``, ``ncycle``, ``pcycles`` and ``lift``:
    a record per result, two only for ``sep-prob --method both``, where
    disagreeing probabilities exit with `EXIT_MISMATCH`."""
    records, mismatch = _result_records(operation, parameters, results, with_float, warnings)
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


def _cmd_lift(args, out: TextIO) -> int:
    warnings: list[str] = []
    lam = _parse_lambda(args.lam, warnings)
    alpha = _parse_alpha(args.alpha)
    res = fm.add_fixed_points_probability(lam, args.r, alpha)
    params = {"lambda": list(lam), "r": args.r, "alpha": list(alpha)}
    return _emit_results(out, "lift", params, [res], args.float, warnings)


def _add_float(p) -> None:
    float_help = "also print a 15-significant-digit decimal (display only)"
    p.add_argument("--float", action="store_true", help=float_help)


def _add_method(p) -> None:
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="formula")


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


def _add_lift(p) -> None:
    p.add_argument("--lambda", dest="lam", required=True, help="base type, parts >= 2")
    p.add_argument("--r", type=int, required=True, help="fixed points to add")
    p.add_argument("--alpha", required=True)
    _add_float(p)
    p.set_defaults(func=_cmd_lift)


# (name, help, add-arguments function or the name of one in
# `permsep.subcommands`), in the order ``--help`` lists them.
_SUBCOMMANDS = (
    ("sep-prob", "separation probability for one cycle type", _add_sep_prob),
    ("ncycle", "product of two uniform full cycles", _add_ncycle),
    ("pcycles", "left factor uniform with p cycles", _add_pcycles),
    ("involution", "left factor a uniform fixed-point-free involution", "_add_involution"),
    ("lift", "add fixed points to the cycle type", _add_lift),
    ("strong", "strong separation probability table", "_add_strong"),
    ("connection", "full-cycle factorization count", "_add_connection"),
    ("gtable", "dump the generating-series coefficient table", "_add_gtable"),
    ("hz", "one-face map vertex polynomial", "_add_hz"),
    ("verify", "run the cross-verification suites", "_add_verify"),
    ("table", "batch separation probabilities", "_add_table"),
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
        if isinstance(add_arguments, str):
            from . import subcommands

            add_arguments = getattr(subcommands, add_arguments)
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
