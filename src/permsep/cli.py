"""Command-line interface: compute, tabulate, and verify.

Every computing subcommand emits a JSON envelope
``{"format": "permsep-records-v1", "records": [...]}`` on stdout; ``table``
can emit CSV instead.  Counts are decimal strings and probabilities are
"p/q" strings in lowest terms, so records round-trip losslessly; ``--float``
adds a 15-significant-digit decimal rendering (display only); counts of any
length are rendered, whatever CPython's int-to-str digit limit.

Exit codes: 0 success, 1 verification mismatch (including ``--method both``
disagreement), 2 invalid arguments, 3 oracle budget exceeded, 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports a process it kills).

Each subcommand imports the modules it runs when it runs, so a fresh process
compiles only its own subcommand's code: ``sep-prob`` loads
`permsep.formulas`, and ``--method oracle`` adds `permsep.oracles`.  This
module holds what every subcommand shares and the two queries of one class,
``sep-prob`` and ``ncycle``.  Every other handler sits beside its declaration
in a module named for the library layer it drives, imported only to run it
or to print help: `permsep.cli_strong` (``strong``, ``connection``),
`permsep.cli_polynomials` (``hz``, ``gtable``), `permsep.cli_variants`
(``pcycles``, ``lift``), `permsep.cli_involution`, `permsep.cli_table` and
`permsep.cli_verify`.
A well-formed call is parsed from its subcommand's option table, and any
other call goes to argparse (`permsep.usage`); help is written as records are.
Records hold only ints and printable ASCII text with no quote or backslash;
a small encoder writes them as ``json.dump(..., indent=2)`` would, byte for
byte, so no subcommand imports `json`.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace
from typing import Iterable, Sequence, TextIO

from .errors import BudgetExceededError
from .partitions import as_composition, conjugacy_class_size, sorted_partition

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


def _parse_parts(text: str, what: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
    if any(p < 1 for p in parts):
        raise ValueError(f"{what} parts must be positive, got {text!r}")
    return parts


def _parse_lambda(text: str) -> tuple[tuple[int, ...], list[str]]:
    """The cycle type sorted into a partition, and the warning if that moved a part."""
    parts = _parse_parts(text, "--lambda")
    canonical = sorted_partition(parts)
    if canonical != parts:
        return canonical, [f"lambda {list(parts)} sorted to partition {list(canonical)}"]
    return canonical, []


def _parse_alpha(text: str, what: str = "--alpha") -> tuple[int, ...]:
    return as_composition(_parse_parts(text, what), allow_empty=False)


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


def _json_str(text: str) -> str:
    """The JSON string literal of printable ASCII text with no quote or
    backslash, which is all the text records hold; TypeError for any other
    text and any other type."""
    if str.isascii(text) and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    raise TypeError(f"records hold no text such as {text!r}")


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, nested at
    ``indent``: `_json_str` text and ints in lists and text-keyed dicts; any
    other type, bool and None included, raises TypeError."""
    if isinstance(value, str):
        return _json_str(value)
    if type(value) is int:
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


def _result_records(operation: str, parameters: dict, results: list, with_float: bool,
                    warnings: Iterable[str] = ()) -> tuple[list[dict], bool]:
    """One record per `permsep.formulas.SepResult`, and whether their
    probabilities disagree."""
    mismatch = len({r.probability for r in results}) > 1
    records = []
    for res in results:
        notes = list(warnings)
        if mismatch:
            notes.append("methods disagree; reporting all values")
        records.append(
            _record(operation, parameters, method=res.method, count=res.count,
                    probability=res.probability, warnings=notes, with_float=with_float)
        )
    return records, mismatch


def _emit_results(out: TextIO, operation: str, parameters: dict, results: list,
                  with_float: bool, warnings: Iterable[str] = ()) -> int:
    """The one emitter of ``sep-prob``, ``ncycle``, ``pcycles`` and ``lift``:
    a record per result, two only for ``sep-prob --method both``, where
    disagreeing probabilities exit with `EXIT_MISMATCH`."""
    records, mismatch = _result_records(operation, parameters, results, with_float, warnings)
    _emit_json(records, out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _sep_results(lam, alpha, method: str) -> list:
    """The results of one separation query, formula first."""
    from . import formulas as fm

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


# Each handler is followed by its subcommand's declaration: (handler, help,
# options).  The options, in the order help lists them, are rows of (flag,
# dest, kind, default, help): ``kind`` is str, int, bool for a flag or the
# tuple of allowed values, and a default of ``...`` marks a required option.
_FLOAT = ("--float", "float", bool, False, "also print a 15-significant-digit decimal (display only)")
_METHOD = ("--method", "method", ("formula", "oracle", "both"), "formula", None)
_N = ("--n", "n", int, ..., None)
_ALPHA = ("--alpha", "alpha", str, ..., None)


def _cmd_sep_prob(args, out: TextIO) -> int:
    lam, warnings = _parse_lambda(args.lam)
    alpha = _parse_alpha(args.alpha)
    results = _sep_results(lam, alpha, args.method)
    params = {"lambda": list(lam), "alpha": list(alpha)}
    return _emit_results(out, "sep-prob", params, results, args.float, warnings)


_SEP_PROB = (_cmd_sep_prob, "separation probability for one cycle type", (
    ("--lambda", "lam", str, ..., "cycle type, e.g. 2,2"),
    ("--alpha", "alpha", str, ..., "block sizes, e.g. 1,1"), _METHOD, _FLOAT))


def _cmd_ncycle(args, out: TextIO) -> int:
    from .formulas import separation_probability

    alpha = _parse_alpha(args.alpha)
    if sum(alpha) > args.n:
        raise ValueError("total block size exceeds n")
    res = separation_probability((args.n,), alpha)._replace(method="two-cycles-closed-form")
    params = {"n": args.n, "alpha": list(alpha)}
    return _emit_results(out, "ncycle", params, [res], args.float)


_NCYCLE = (_cmd_ncycle, "product of two uniform full cycles", (_N, _ALPHA, _FLOAT))


# Every subcommand's declaration, or "module.DECLARATION" for one declared in
# another module of the package, in the order ``--help`` lists them.
_SUBCOMMANDS = {
    "sep-prob": _SEP_PROB, "ncycle": _NCYCLE, "pcycles": "cli_variants._PCYCLES",
    "involution": "cli_involution._INVOLUTION", "lift": "cli_variants._LIFT",
    "strong": "cli_strong._STRONG", "connection": "cli_strong._CONNECTION",
    "gtable": "cli_polynomials._GTABLE", "hz": "cli_polynomials._HZ",
    "verify": "cli_verify._VERIFY", "table": "cli_table._TABLE",
}


def _command(name: str) -> tuple | None:
    """The declaration of the subcommand ``name``, or None if there is none."""
    command = _SUBCOMMANDS.get(name)
    if isinstance(command, str):
        module, declaration = command.split(".")
        command = getattr(import_module(f"{__package__}.{module}"), declaration)
    return command


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for a well-formed call: an exact
    subcommand name, then exact option names, each but a flag followed by a
    value not starting with ``-``, covering every required option with valid
    ints and choices; the last occurrence of an option wins.  None for any
    other call (``-h``, ``--opt=value``, an abbreviation, ...)."""
    command = _command(argv[0]) if argv else None
    if command is None:
        return None
    func, _, options = command
    rows = {row[0]: row for row in options}
    values = {dest: default for _, dest, _, default, _ in options}
    tokens = iter(argv[1:])
    try:  # KeyError: an unknown option, StopIteration: no value, ValueError: a bad int
        for token in tokens:
            _, dest, kind, _, _ = rows[token]
            value = True if kind is bool else next(tokens)
            if value is not True and value.startswith("-"):
                return None
            values[dest] = int(value) if kind is int else value  # before `main` lifts the limit
            if isinstance(kind, tuple) and value not in kind:
                return None
    except (KeyError, StopIteration, ValueError):
        return None
    if ... in values.values():  # a required option is missing
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_well_formed(argv)
    if args is None:
        from .usage import parse_args

        args = parse_args(argv)
    # Counts can run past CPython's int-to-str limit (4,300 digits by
    # default): lift it while the subcommand runs, then restore it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args, out)
        out.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: send the flush at exit nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_BROKEN_PIPE
    except BudgetExceededError as exc:
        print(f"permsep: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"permsep: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
