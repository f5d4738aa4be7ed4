"""One benchmark child process: a ``permsep`` command or a warm library batch.

    python perfbench/child.py [--trace FILE --workload W --query ID] cli -- ARGS...
    python perfbench/child.py [--trace FILE --workload W] batch < queries.json

``cli`` runs ``permsep.cli.main(ARGS)`` and exits with its code.  ``batch``
reads a JSON list of queries, makes one library call per query in this one
process, and prints a JSON object with the wall time of the whole list and,
per query, its time and its result (numbers as strings).  With ``--trace``
the layer modules are wrapped first and the spans are written to FILE as
JSON lines when the child exits.

``permsep`` is imported from the ``src/`` directory beside this benchmark,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def _frac(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parts(values) -> str:
    return ",".join(str(v) for v in values)


def run_query(permsep, query: dict) -> dict:
    """One library call; the result with every number as a string."""
    kind = query["kind"]
    if kind == "sep-prob":
        res = permsep.separation_probability(query["lam"], query["alpha"])
        return {"count": str(res.count), "probability": _frac(res.probability)}
    if kind == "pcycles":
        res = permsep.separation_probability_p_cycles(query["n"], query["p"], query["alpha"])
        return {"count": str(res.count), "probability": _frac(res.probability)}
    if kind == "strong":
        table = permsep.strong_probability_table(query["lam"], query["m"])
        return {"table": {_parts(beta): _frac(p) for beta, p in table.items()}}
    if kind == "connection":
        return {"count": str(permsep.connection_coefficient(query["lam"], query["alpha"]))}
    raise ValueError(f"no library call for query kind {kind!r}")


def run_batch(permsep, queries: list[dict], tracer) -> dict:
    results = []
    begin = perf_counter()
    for query in queries:
        if tracer is not None:
            tracer.query = query["id"]
        start = perf_counter()
        try:
            result = run_query(permsep, query)
        except Exception as exc:  # reported per query, the batch goes on
            result = {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"id": query["id"], "seconds": perf_counter() - start, "result": result})
    return {"wall": perf_counter() - begin, "results": results}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", default=None)
    parser.add_argument("--workload", default="")
    parser.add_argument("--query", type=int, default=None)
    parser.add_argument("mode", choices=("cli", "batch"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()

    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer(opts.workload)
        tracer.install()
        tracer.query = opts.query
    import permsep
    import permsep.cli

    try:
        if opts.mode == "cli":
            args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
            return permsep.cli.main(args)
        queries = json.load(sys.stdin)
        json.dump(run_batch(permsep, queries, tracer), sys.stdout)
        sys.stdout.write("\n")
        return 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
