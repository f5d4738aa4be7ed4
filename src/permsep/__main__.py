"""The process entry: ``python -m permsep`` and the installed ``permsep``
script both run `run`.

A one-shot query computes in a few milliseconds, and CPython's finalization
then runs full garbage collections over every object still alive, thousands
of them once ``site`` and a query's imports have run, which takes a few
milliseconds more.  A finished process needs none of that memory freed, so
`run` moves every tracked object into the collector's permanent generation
(`gc.freeze`), which those collections skip, before it exits.  The rest of
a normal exit still happens: `SystemExit` propagates, atexit handlers run,
modules are finalized and buffered streams flushed, so wrappers such as
``python -m cProfile -m permsep`` still print their reports.
`permsep.cli.main` freezes nothing, so an in-process caller keeps a heap
that the collector can reclaim.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
