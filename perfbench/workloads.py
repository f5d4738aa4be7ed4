"""Seeded query lists for the three benchmark workloads.

Each workload produces one *pass*: a fixed list of queries drawn from the
seed.  A run repeats its pass until the measuring time is used up.  The
lists are stratified: every seed gets the same number of queries of each
kind and size, and the seed chooses only the cycle types, block profiles
and order.  That keeps the work per pass, and so every metric, nearly the
same across seeds, while still exercising different inputs.

This module imports nothing from ``permsep``: the generated queries are
plain data, built only from the seed.
"""

from __future__ import annotations

import random
from functools import lru_cache

WORKLOADS = ("cold-cli", "warm-batch", "oracle-verify")

# Sizes stay inside what the seed commit answers quickly and exactly: one
# n = 16 formula query already takes seconds, oracles stop at PAIR_BUDGET's
# max_n = 8, and decimal output of n! must stay below Python's 4300-digit
# integer-to-string limit.
# A cold pass has 27 queries in four cost groups: 3 cheap closed forms,
# 4 at n = 10-11, 14 at n = 11-12 and 6 at n = 13-14.  A query's cost is set
# by n and by its number of per-(m, k) builds, so the seed picks cycle
# types and blocks freely but the build count is fixed: one for sep-prob,
# two for lift (blocks with m - k = 1), m for strong and n for connection.
# The groups are sized so that the median falls in the middle of the
# n = 11-12 group, whose middle is ten sep-prob at n = 12 of the same cost,
# and the 90th percentile inside the n = 13 group, below the one n = 14
# query.  Neither then sits on a boundary between groups of different cost;
# the median rests on ten samples per pass and the 90th percentile on five.
COLD_CHEAP = ("ncycle", "pcycles", "involution")
COLD_LOW = (("sep-prob", 10), ("connection", 10), ("strong", 10, 5), ("lift", 11, 1))
COLD_MID = (("sep-prob", 12),) * 10 + (
    ("lift", 12, 1), ("connection", 11), ("strong", 12, 3), ("hz",),
)
COLD_TOP = (("sep-prob", 13),) * 4 + (("lift", 14, 1), ("sep-prob", 14))
WARM_DEGREE = 12
# The seed picks one cycle type of 12 from each stratum of part counts.  A
# connection call re-solves the strong table of its cycle type, and that
# costs about the same for every type with two or more parts (within 8% on
# a 2-vCPU x86 machine, best of 25 calls each); (12) is cheaper and is left
# out.  So the seed changes the inputs but not the work of a pass.
WARM_STRATA = ((2, 3), (4, 5), (6, 7), (8, 12))
# Enough connection calls that the slowest tenth of the batch is made of
# them: query_p90_ref then follows the strong back-substitution.
WARM_CONNECTIONS = 40
ORACLE_DEGREE = 8


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None, smallest: int = 1) -> tuple:
    """All partitions of n with parts in [smallest, largest], as tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, largest), smallest - 1, -1):
        for rest in partitions(n - first, first, smallest):
            out.append((first,) + rest)
    return tuple(out)


def _parts(values) -> str:
    return ",".join(str(v) for v in values)


def _blocks(rng: random.Random, limit: int, max_blocks: int = 3, max_part: int = 4) -> tuple:
    """A block profile (composition) with total size at most ``limit``."""
    while True:
        k = rng.randint(1, max_blocks)
        alpha = tuple(rng.randint(1, max_part) for _ in range(k))
        if sum(alpha) <= limit:
            return alpha


def _cold_query(rng: random.Random, spec: tuple) -> dict:
    kind = spec[0]
    if kind == "sep-prob":
        n = spec[1]
        return {"kind": kind, "lam": rng.choice(partitions(n)), "alpha": _blocks(rng, n)}
    if kind == "lift":
        n, r = spec[1], spec[2]
        alpha = [2] + [1] * rng.randint(0, 2)
        rng.shuffle(alpha)
        return {"kind": kind, "lam": rng.choice(partitions(n - r, smallest=2)), "r": r, "alpha": tuple(alpha)}
    if kind == "strong":
        return {"kind": kind, "lam": rng.choice(partitions(spec[1])), "m": spec[2]}
    if kind == "connection":
        n = spec[1]
        return {"kind": kind, "lam": rng.choice(partitions(n)), "alpha": rng.choice(partitions(n))}
    if kind == "hz":
        return {"kind": kind, "pairs": rng.randint(56, 60)}
    if kind == "involution":
        return {"kind": kind, "pairs": rng.randint(20, 80), "alpha": _blocks(rng, 40, 4)}
    if kind == "ncycle":
        n = rng.randint(100, 400)
        return {"kind": kind, "n": n, "alpha": _blocks(rng, n, 4)}
    if kind == "pcycles":
        n = rng.randint(50, 150)
        return {"kind": kind, "n": n, "p": rng.randint(1, 12), "alpha": _blocks(rng, n, 4)}
    raise ValueError(kind)


def _cold_cli(rng: random.Random) -> list[dict]:
    queries = [_cold_query(rng, spec) for spec in COLD_LOW + COLD_MID + COLD_TOP]
    queries += [_cold_query(rng, (kind,)) for kind in COLD_CHEAP]
    # One n = 12 sep-prob is on lambda = (n), which has its own closed form.
    two_cycle = next(q for q in queries if q["kind"] == "sep-prob" and sum(q["lam"]) == 12)
    two_cycle["lam"] = (12,)
    rng.shuffle(queries)
    return queries


def _warm_batch(rng: random.Random) -> list[dict]:
    n = WARM_DEGREE
    alphas = [alpha for m in range(1, n + 1) for alpha in partitions(m)]
    queries = []
    strata = [[lam for lam in partitions(n) if low <= len(lam) <= high] for low, high in WARM_STRATA]
    for lam in [rng.choice(stratum) for stratum in strata]:
        block = [{"kind": "sep-prob", "lam": lam, "alpha": alpha} for alpha in alphas]
        block += [{"kind": "strong", "lam": lam, "m": m} for m in range(1, n + 1)]
        block += [
            {"kind": "connection", "lam": lam, "alpha": alpha}
            for alpha in rng.sample(partitions(n), WARM_CONNECTIONS)
        ]
        block += [
            {"kind": "pcycles", "n": n, "p": p, "alpha": _blocks(rng, n, 4)}
            for p in range(1, n + 1)
        ]
        rng.shuffle(block)
        queries += block
    return queries


def _oracle_verify(rng: random.Random) -> list[dict]:
    queries = [{"kind": "verify"}]
    # Every cycle type of 8 once, so the enumeration work per pass does not
    # depend on the seed; the seed picks the order and the block profiles.
    for lam in rng.sample(partitions(ORACLE_DEGREE), len(partitions(ORACLE_DEGREE))):
        queries.append({"kind": "sep-prob-both", "lam": lam, "alpha": _blocks(rng, 4)})
    rng.shuffle(queries)
    return queries


def make_pass(workload: str, seed: int) -> list[dict]:
    """The fixed query list of one pass of ``workload`` for ``seed``."""
    builders = {
        "cold-cli": _cold_cli,
        "warm-batch": _warm_batch,
        "oracle-verify": _oracle_verify,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    queries = builders[workload](random.Random(f"{workload}:{seed}"))
    for qid, query in enumerate(queries):
        query["id"] = qid
    return queries


def verify_args(threads: int) -> list[str]:
    return ["verify", "--suite", "all", "--max-n", "7", "--threads", str(threads)]


def cli_args(query: dict) -> list[str]:
    """The ``python -m permsep`` arguments for a command-line query."""
    kind = query["kind"]
    if kind == "verify":
        return verify_args(threads=2)
    if kind == "sep-prob":
        return ["sep-prob", "--lambda", _parts(query["lam"]), "--alpha", _parts(query["alpha"])]
    if kind == "sep-prob-both":
        return [
            "sep-prob", "--lambda", _parts(query["lam"]),
            "--alpha", _parts(query["alpha"]), "--method", "both",
        ]
    if kind == "lift":
        return [
            "lift", "--lambda", _parts(query["lam"]),
            "--r", str(query["r"]), "--alpha", _parts(query["alpha"]),
        ]
    if kind == "strong":
        return ["strong", "--lambda", _parts(query["lam"]), "--m", str(query["m"])]
    if kind == "connection":
        return ["connection", "--lambda", _parts(query["lam"]), "--alpha", _parts(query["alpha"])]
    if kind == "hz":
        return ["hz", "--N", str(query["pairs"])]
    if kind == "involution":
        return ["involution", "--N", str(query["pairs"]), "--alpha", _parts(query["alpha"])]
    if kind == "ncycle":
        return ["ncycle", "--n", str(query["n"]), "--alpha", _parts(query["alpha"])]
    if kind == "pcycles":
        return [
            "pcycles", "--n", str(query["n"]), "--p", str(query["p"]),
            "--alpha", _parts(query["alpha"]),
        ]
    raise ValueError(f"no command line for query kind {kind!r}")
