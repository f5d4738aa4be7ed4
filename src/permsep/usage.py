"""Help and usage errors: the argparse parser of every subcommand.

`permsep.cli.main` parses a well-formed call from the option tables itself;
any other call, such as ``--help``, an abbreviation or a bad value, comes
here, so argparse is imported and its parser built from the same tables only
when it prints help or an error.
"""

from __future__ import annotations

import argparse

from .cli import _SUBCOMMANDS, _command


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
