"""Correctness checks on benchmark answers, run after the timed region.

`parse_cli` turns the output of one ``python -m permsep`` query into the
same result shape the warm batch returns.  `Checker.check` then returns the
list of problems with one answer (empty when it is right):

- every count and probability: 0 <= p <= 1 and count = p * pair space,
  with the pair space computed here from first principles;
- two blocks or fewer: the count equals a sum over cycle types tau of the
  number of pi in the class with pi * omega of type tau (Frobenius formula,
  only hook characters are nonzero on a full cycle) times the number of
  block tuples a permutation of type tau separates (a small DP), which
  shares no code with ``permsep``;
- lambda = (n): the count equals ``separation_probability_two_cycles``;
- ``--method both`` (n <= 8): the formula count equals the count from
  ``oracle_separated_pair_count``;
- ``lift``: the count equals ``separated_pair_count`` on the extended type;
- p cycles at n <= 12: the count equals the sum of ``separated_pair_count``
  over the cycle types of n with p parts;
- strong tables: one entry per partition of m, each in [0, 1], and the
  all-singletons entry equals the weak probability (for singleton blocks
  strong and weak separation coincide);
- connection coefficients: the hook-character formula below;
- one-face maps: the vertex polynomial sums to (2N-1)!!, its top
  coefficient is the Catalan number and it vanishes at odd genus offsets;
- ``verify``: the output ends with ``OK`` and has no ``FAIL`` line.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from workloads import partitions

WARM_SUM_LIMIT = 12
# The character check's DP grows with the number of blocks; two blocks keep
# it to about a second per warm-batch run.
CHARACTER_MAX_BLOCKS = 2


def multinomial(parts) -> int:
    out, total = 1, 0
    for part in parts:
        total += part
        out *= math.comb(total, part)
    return out


def class_size(lam) -> int:
    z = 1
    for part, mult in Counter(lam).items():
        z *= part**mult * math.factorial(mult)
    return math.factorial(sum(lam)) // z


def stirling_cycles(n: int, p: int) -> int:
    """Permutations of n points with exactly p cycles."""
    row = [1]
    for i in range(n):
        row = [(row[j] if j < len(row) else 0) * i + (row[j - 1] if j else 0) for j in range(len(row) + 1)]
    return row[p] if p < len(row) else 0


def double_factorial_odd(pairs: int) -> int:
    return math.prod(range(1, 2 * pairs, 2))


@lru_cache(maxsize=None)
def hook_characters(mu: tuple) -> tuple:
    """chi^{(n-r, 1^r)}(mu) for r = 0..n-1: the coefficients of
    prod_i (1 - (-y)^{mu_i}) / (1 + y)."""
    poly = [1]
    for part in mu:
        out = poly + [0] * part
        sign = (-1) ** part
        for i, a in enumerate(poly):
            out[i + part] -= sign * a
        poly = out
    quotient = []
    carry = 0
    for coeff in poly[:-1]:
        carry = coeff - carry
        quotient.append(carry)
    return tuple(quotient)


@lru_cache(maxsize=None)
def _class_pairs(lam: tuple, tau: tuple) -> Fraction:
    """#{pi of type lam : pi * omega has type tau} for a fixed full cycle
    omega, by the Frobenius formula: only hook characters are nonzero on a
    full cycle, where chi^{(n-r, 1^r)} = (-1)^r."""
    n = sum(lam)
    a, b = hook_characters(lam), hook_characters(tau)
    total = sum(Fraction((-1) ** r * a[r] * b[r], math.comb(n - 1, r)) for r in range(n))
    return total * class_size(lam) * class_size(tau) / math.factorial(n)


def connection_by_characters(lam, alpha) -> Fraction:
    """Factorizations of a fixed permutation of type alpha as (class of lam)
    times (full cycle)."""
    n = sum(lam)
    return _class_pairs(tuple(lam), tuple(alpha)) * math.factorial(n - 1) / class_size(alpha)


@lru_cache(maxsize=None)
def separated_tuples(cycles: tuple, blocks: tuple) -> int:
    """Ordered tuples of disjoint blocks of the given sizes that no cycle of a
    permutation with the given cycle sizes meets twice."""
    states = {blocks: 1}
    for c in cycles:
        nxt: dict[tuple, int] = {}
        for need, ways in states.items():
            nxt[need] = nxt.get(need, 0) + ways
            for i, left in enumerate(need):
                for j in range(1, min(c, left) + 1):
                    key = need[:i] + (left - j,) + need[i + 1:]
                    nxt[key] = nxt.get(key, 0) + ways * math.comb(c, j)
        states = nxt
    return states.get((0,) * len(blocks), 0)


def weak_count_by_characters(lam, alpha) -> Fraction:
    """Separated pairs (pi of type lam, block tuple of sizes alpha)."""
    lam, blocks = tuple(sorted(lam, reverse=True)), tuple(sorted(alpha, reverse=True))
    return sum(
        (_class_pairs(lam, tau) * separated_tuples(tau, blocks) for tau in partitions(sum(lam))),
        Fraction(0),
    )


def _frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _pair_space(query: dict) -> int:
    kind, alpha = query["kind"], query["alpha"]
    if kind in ("sep-prob", "sep-prob-both"):
        n, classes = sum(query["lam"]), class_size(query["lam"])
    elif kind == "lift":
        extended = tuple(query["lam"]) + (1,) * query["r"]
        n, classes = sum(extended), class_size(extended)
    elif kind == "ncycle":
        n, classes = query["n"], math.factorial(query["n"] - 1)
    elif kind == "pcycles":
        n, classes = query["n"], stirling_cycles(query["n"], query["p"])
    elif kind == "involution":
        n, classes = 2 * query["pairs"], double_factorial_odd(query["pairs"])
    else:
        raise ValueError(kind)
    return multinomial(list(alpha) + [n - sum(alpha)]) * classes


def parse_cli(query: dict, stdout: str) -> dict:
    """The result of one command-line query, shaped like a batch result."""
    kind = query["kind"]
    if kind == "verify":
        return {"text": stdout}
    records = json.loads(stdout)["records"]

    def numbers(record):
        return {"count": record["count"], "probability": record["probability"]}

    if kind in ("sep-prob", "lift", "ncycle", "pcycles"):
        return numbers(records[0])
    if kind == "involution":
        return numbers(next(r for r in records if "count" in r))
    if kind == "sep-prob-both":
        return {r["method"]: numbers(r) for r in records}
    if kind == "strong":
        return {
            "table": {",".join(map(str, r["parameters"]["beta"])): r["probability"] for r in records}
        }
    if kind == "connection":
        return {"count": records[0]["count"]}
    if kind == "hz":
        return {"monomial": records[0]["details"]["monomial"]}
    raise ValueError(f"unknown query kind {kind!r}")


class Checker:
    """Checks answers; imports ``permsep`` from ``src`` for the references."""

    def __init__(self, src: str):
        if src not in sys.path:
            sys.path.insert(0, src)
        import permsep

        if not os.path.abspath(permsep.__file__).startswith(os.path.abspath(src)):
            raise RuntimeError(f"permsep imported from {permsep.__file__}, not {src}")
        self.permsep = permsep

    def check(self, query: dict, result: dict) -> list[str]:
        if "error" in result:
            return [result["error"]]
        try:
            return self._check(query, result)
        except (KeyError, ValueError, TypeError, StopIteration) as exc:
            return [f"malformed answer: {type(exc).__name__}: {exc}"]

    def _count_and_probability(self, query: dict, result: dict) -> list[str]:
        count, prob = int(result["count"]), _frac(result["probability"])
        problems = []
        if not 0 <= prob <= 1:
            problems.append(f"probability {prob} outside [0, 1]")
        if count != prob * _pair_space(query):
            problems.append(f"count {count} != probability {prob} * pair space")
        return problems

    def _check(self, query: dict, result: dict) -> list[str]:
        ps = self.permsep
        kind = query["kind"]
        if kind == "verify":
            lines = result["text"].strip().splitlines()
            if not lines or not lines[-1].startswith("OK") or any(l.startswith("FAIL") for l in lines):
                return ["verify did not print OK"]
            return []
        if kind == "sep-prob-both":
            problems = []
            if len(query["alpha"]) <= CHARACTER_MAX_BLOCKS:
                want = weak_count_by_characters(query["lam"], query["alpha"])
                if int(result["oracle"]["count"]) != want:
                    problems.append(f"oracle count != character count {want}")
            for method in ("generating-series", "oracle"):
                problems += self._count_and_probability(query, result[method])
            if result["generating-series"]["count"] != result["oracle"]["count"]:
                problems.append("formula and oracle counts differ")
            return problems
        if kind == "strong":
            return self._check_strong(query, result["table"])
        if kind == "connection":
            count = int(result["count"])
            want = connection_by_characters(query["lam"], query["alpha"])
            return [] if count == want else [f"connection {count} != character formula {want}"]
        if kind == "hz":
            return self._check_hz(query["pairs"], [int(c) for c in result["monomial"]])

        problems = self._count_and_probability(query, result)
        count = int(result["count"])
        lam = tuple(query.get("lam", ()))
        if kind in ("sep-prob", "lift") and len(query["alpha"]) <= CHARACTER_MAX_BLOCKS:
            full = lam + (1,) * query.get("r", 0)
            want = weak_count_by_characters(full, query["alpha"])
            if count != want:
                problems.append(f"count {count} != character count {want}")
        if kind == "sep-prob" and len(lam) == 1:
            want = ps.separation_probability_two_cycles(lam[0], query["alpha"]).count
            if count != want:
                problems.append(f"count {count} != two-cycle closed form {want}")
        if kind == "lift":
            extended = tuple(sorted(lam + (1,) * query["r"], reverse=True))
            want = ps.separated_pair_count(extended, query["alpha"])
            if count != want:
                problems.append(f"lifted count {count} != direct count {want}")
        if kind == "pcycles" and query["n"] <= WARM_SUM_LIMIT:
            want = sum(
                ps.separated_pair_count(mu, query["alpha"])
                for mu in ps.partitions(query["n"])
                if len(mu) == query["p"]
            )
            if count != want:
                problems.append(f"p-cycle count {count} != sum over cycle types {want}")
        return problems

    def _check_strong(self, query: dict, table: dict) -> list[str]:
        m, lam = query["m"], query["lam"]
        want_keys = {",".join(map(str, beta)) for beta in self.permsep.partitions(m)}
        if set(table) != want_keys:
            return [f"strong table keys are not the partitions of {m}"]
        problems = [f"strong {key} = {p} outside [0, 1]" for key, p in table.items() if not 0 <= _frac(p) <= 1]
        singles = ",".join(["1"] * m)
        weak = self.permsep.separation_probability(lam, (1,) * m).probability
        if _frac(table[singles]) != weak:
            problems.append(f"strong all-singletons {table[singles]} != weak {weak}")
        return problems

    @staticmethod
    def _check_hz(pairs: int, monomial: list[int]) -> list[str]:
        problems = []
        if sum(monomial) != double_factorial_odd(pairs):
            problems.append("one-face maps do not sum to (2N-1)!!")
        catalan = math.comb(2 * pairs, pairs) // (pairs + 1)
        if len(monomial) != pairs + 2 or monomial[pairs + 1] != catalan:
            problems.append("planar one-face maps are not counted by the Catalan number")
        if any(c for v, c in enumerate(monomial) if (pairs + 1 - v) % 2):
            problems.append("one-face map with a non-integral genus")
        return problems
