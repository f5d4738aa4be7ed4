"""The ``verify`` subcommand, which runs `permsep.verification`.

It prints one PASS/FAIL line per criterion group and nothing else;
``--threads`` is the number of worker processes its checks are split over,
the caller being one, and the output is byte-identical for any value.  The
handler is followed by its declaration, in the format `permsep.cli`
documents; `permsep.cli` imports this module only to run it or to print help.
"""

from __future__ import annotations

from typing import TextIO

from .cli import EXIT_MISMATCH, EXIT_OK


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
