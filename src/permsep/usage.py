"""Help and usage errors: the argparse parser of every subcommand.

`permsep.cli.main` parses a well-formed call from the option tables itself;
any other call, such as ``--help``, an abbreviation or a bad value, comes
here, so argparse is imported and its parser built from the same tables only
when it prints help or an error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from types import SimpleNamespace

from .cli import _SUBCOMMANDS, EXIT_OK, EXIT_USAGE, _command


def _answer(args, out) -> int:
    """The subcommand of a call that argparse answered itself."""
    out.write(args.help)
    return args.code


def parse_args(argv: list[str]):
    """What argparse parses from ``argv``.  Where argparse answers the call
    itself, with help or with an error it has printed to stderr, a namespace
    whose ``func`` writes the help text, if any, and returns the exit code:
    `permsep.cli.main` then writes help as it writes records, flushed, and
    exits 141 if stdout's reader has gone, an error that argparse's own
    write would swallow or leave to the interpreter's exit."""
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            return _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        return SimpleNamespace(func=_answer, help=help_text.getvalue(), code=code)


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with just the subcommand named ``only``, or with all of
    them when ``only`` names none; its help and error text are the same
    either way."""
    parser = argparse.ArgumentParser(
        prog="permsep",
        description="Exact separation probabilities for products of random permutations.",
    )
    chosen = [only] if only in _SUBCOMMANDS else []
    # Built alone, a subcommand still lists every name in the top-level
    # usage line, which argparse prints for an unrecognized argument.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if chosen else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in chosen or _SUBCOMMANDS:
        func, help_text, options = _command(name)
        p = sub.add_parser(name, help=help_text)
        for flag, dest, kind, default, option_help in options:
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=option_help)
            else:
                p.add_argument(flag, dest=dest, type=int if kind is int else None,
                               choices=kind if isinstance(kind, tuple) else None,
                               required=default is ..., default=default, help=option_help)
        p.set_defaults(func=func)
    return parser
