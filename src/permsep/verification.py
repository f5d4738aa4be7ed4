"""Cross-verification suites: every closed form against its brute-force oracle.

Each check sweeps a family of instances, comparing exact values (tolerance is
zero everywhere) and returns a CheckResult.  The suites are shared between
the command-line ``verify`` subcommand and the acceptance test module.

Sweeps indexed by the ground-set size honor a ``max_n`` cap (involution
checks use ``max_n // 2`` pairs); pure polynomial identities are cheap and
always run at their full stated ranges.  Oracle enumeration can be spread
over worker threads; all reductions are additions, so results and therefore
the rendered report are identical for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import formulas as fm
from . import oracles as orc
from . import strong as st
from .partitions import (
    all_compositions,
    conjugacy_class_size,
    multinomial,
    partitions,
    perfect_matching_count,
    stirling_first_unsigned,
)
from .errors import InvariantError
from .perms import Permutation
from .separation import block_tuple_count
from .symfunc import (
    SymFuncVector,
    cycle_count_power_coefficient,
    involution_length_power_coefficient,
    power_sum_coefficient,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...] = ()

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} criterion-{self.criterion} {self.name} [{self.checks} checks]"
        if self.failures:
            shown = "; ".join(self.failures[:5])
            more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
            line += f": {shown}{more}"
        return line


class _Recorder:
    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def equal(self, got, want, label: str) -> None:
        self.expect(got == want, f"{label}: got {got}, want {want}")

    def result(self, criterion: str, name: str) -> CheckResult:
        return CheckResult(
            criterion=criterion,
            name=name,
            passed=not self.failures,
            checks=self.checks,
            failures=tuple(self.failures),
        )


def _block_profiles(total_max: int) -> Iterable[tuple[int, ...]]:
    """All partition-shaped block profiles of size 1..total_max."""
    for m in range(1, total_max + 1):
        yield from partitions(m)


def _oracle_probability(lam, alpha, threads) -> Fraction:
    n = sum(lam)
    count = orc.oracle_separated_pair_count(lam, alpha, threads=threads)
    return Fraction(count, block_tuple_count(n, alpha) * conjugacy_class_size(lam))


def check_two_cycle_closed_form(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(4, min(9, max_n) + 1):
        for k in range(2, min(n, 5) + 1):
            alpha = (1,) * k
            closed = fm.separation_probability_two_cycles(n, alpha).probability
            rec.equal(
                closed,
                fm.singleton_blocks_probability(n, k),
                f"piecewise form n={n} k={k}",
            )
            if n <= min(7, max_n):
                rec.equal(
                    closed,
                    _oracle_probability((n,), alpha, threads),
                    f"oracle n={n} k={k}",
                )
    return rec.result("1", "two-full-cycles closed form")


def check_symmetry(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(7, max_n) + 1):
        for lam in partitions(n):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    profiles = [a for a in partitions(m) if len(a) == k]
                    counts = [
                        orc.oracle_separated_pair_count(lam, a, threads=threads)
                        for a in profiles
                    ]
                    formula = fm.separated_pair_count(lam, profiles[0])
                    for alpha, count in zip(profiles, counts):
                        rec.equal(
                            count,
                            formula,
                            f"lam={lam} alpha={alpha}",
                        )
    return rec.result("2", "separated counts depend only on (m, k)")


def check_colored_quadruples(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(5, max_n) + 1):
        for gamma in partitions(n):
            for alpha in _block_profiles(n):
                for r in range(n - sum(alpha) + 2):
                    rec.equal(
                        orc.oracle_separated_colored_count(
                            gamma, alpha, r, threads=threads
                        ),
                        fm.separated_colored_count(
                            n, len(gamma), sum(alpha), len(alpha), r
                        ),
                        f"n={n} gamma={gamma} alpha={alpha} r={r}",
                    )
    return rec.result("3", "separated colored quadruple formula")


def check_colored_triples(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(6, max_n) + 1):
        for gamma in all_compositions(n):
            if not gamma:
                continue
            for delta in all_compositions(n):
                if not delta:
                    continue
                rec.equal(
                    orc.oracle_colored_factorization_count(
                        gamma, delta, threads=threads
                    ),
                    fm.colored_factorization_count(n, len(gamma), len(delta)),
                    f"n={n} gamma={gamma} delta={delta}",
                )
    return rec.result("4", "colored factorization formula")


def check_p_cycles(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(7, max_n) + 1):
        for alpha in _block_profiles(n):
            m, k = sum(alpha), len(alpha)
            for p in range(1, n + 1):
                oracle_total = sum(
                    orc.oracle_separated_pair_count(lam, alpha, threads=threads)
                    for lam in partitions(n)
                    if len(lam) == p
                )
                count = fm.separated_count_p_cycles(n, p, alpha)
                rec.equal(count, oracle_total, f"count n={n} p={p} alpha={alpha}")
                prob = fm.separation_probability_p_cycles(n, p, alpha).probability
                space = multinomial(list(alpha) + [n - m]) * stirling_first_unsigned(
                    n, p
                )
                rec.equal(
                    prob,
                    Fraction(oracle_total, space),
                    f"probability n={n} p={p} alpha={alpha}",
                )
    return rec.result("5", "fixed-cycle-count closed form")


def _padded(values: Iterable[Fraction], size: int) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    return out + [Fraction(0)] * (size - len(out))


def check_involution_series(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(4, max_n // 2) + 1):
        n = 2 * pairs
        for alpha in _block_profiles(n):
            m, k = sum(alpha), len(alpha)
            series = fm.involution_series(pairs, alpha)
            histogram = orc.oracle_involution_series(pairs, alpha, threads=threads)
            monomial = fm.involution_series_monomial(pairs, alpha)
            size = max(len(monomial), max(histogram, default=-1) + 1)
            rec.equal(
                _padded(monomial, size),
                [Fraction(histogram.get(j, 0)) for j in range(size)],
                f"series N={pairs} alpha={alpha}",
            )
            oracle_count = sum(histogram.values())
            rec.equal(
                series.evaluate(1 - k),
                Fraction(oracle_count),
                f"pair count N={pairs} alpha={alpha}",
            )
            sep = fm.separation_probability_involution(pairs, alpha)
            space = multinomial(list(alpha) + [n - m]) * perfect_matching_count(pairs)
            rec.equal(
                sep.probability,
                Fraction(oracle_count, space),
                f"probability N={pairs} alpha={alpha}",
            )
            printed = fm.involution_probability_printed_form(pairs, alpha)
            rec.equal(
                printed * math.factorial(n - m),
                sep.probability,
                f"printed-form factor N={pairs} alpha={alpha}",
            )
        # the series is the all-twos power-sum slice of the general table
        for alpha in list(_block_profiles(n)) + [()]:
            m, k = sum(alpha), len(alpha)
            table = fm.gen_series_table(n, m, k)
            series = fm.involution_series(pairs, alpha)
            for r in range(n - m + 1):
                vec = SymFuncVector(
                    n,
                    "m",
                    {
                        lam: Fraction(table.coefficient(lam, r))
                        for lam in partitions(n)
                    },
                )
                rec.equal(
                    power_sum_coefficient(vec, (2,) * pairs),
                    series.coefficient(r),
                    f"series slice N={pairs} alpha={alpha} r={r}",
                )
    rec.expect(
        fm.involution_probability_printed_form(2, (1, 1)) == Fraction(5, 18)
        and fm.separation_probability_involution(2, (1, 1)).probability
        == Fraction(5, 9),
        "printed vs count-based value at N=2, alpha=(1,1)",
    )
    return rec.result("6", "fixed-point-free involution series")


def check_fixed_point_lift(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(2, min(6, max_n) + 1):
        for lam in partitions(n):
            if any(part < 2 for part in lam):
                continue
            for r in range(4):
                lifted = tuple(sorted(lam + (1,) * r, reverse=True))
                for alpha in _block_profiles(n + r):
                    value = fm.add_fixed_points_count(lam, r, alpha)
                    rec.equal(
                        value,
                        fm.separated_pair_count(lifted, alpha),
                        f"series path lam={lam} r={r} alpha={alpha}",
                    )
                    if n + r <= 8:
                        rec.equal(
                            value,
                            orc.oracle_separated_pair_count(
                                lifted, alpha, threads=threads
                            ),
                            f"oracle lam={lam} r={r} alpha={alpha}",
                        )
    return rec.result("7", "fixed-point lifting relation")


def check_one_face_maps(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(5, max_n // 2) + 1):
        series = fm.one_face_map_series(pairs)
        rec.equal(
            dict(series.coeffs),
            dict(fm.involution_series(pairs, ()).coeffs),
            f"series equality N={pairs}",
        )
        histogram = orc.oracle_involution_series(pairs, (), threads=threads)
        monomial = series.to_monomial()
        expected = [Fraction(0)] * len(monomial)
        for j, ways in histogram.items():
            expected[j] = Fraction(ways)
        rec.equal(list(monomial), expected, f"oracle N={pairs}")
        for r, c in series.coeffs.items():
            rec.expect(
                c.denominator == 1 and c >= 0,
                f"coefficient at N={pairs} r={r} not a nonnegative integer: {c}",
            )
    return rec.result("8", "one-face map vertex polynomial")


def check_colored_matchings(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(4, max_n // 2) + 1):
        for gamma in partitions(2 * pairs):
            rec.equal(
                orc.oracle_colored_matching_count(pairs, gamma, threads=threads),
                fm.colored_matching_count(pairs, len(gamma)),
                f"N={pairs} gamma={gamma}",
            )
    return rec.result("9", "colored one-face map refinement")


def check_lemma_identities(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(5, max(1, max_n // 2)) + 1):
        for surplus in range(pairs + 1):
            try:
                involution_length_power_coefficient(pairs, surplus)
                rec.expect(True, "unreachable")
            except InvariantError as exc:
                rec.expect(False, f"involution coefficient N={pairs} s={surplus}: {exc}")
    for n in range(1, min(8, max_n) + 1):
        for p in range(1, n + 1):
            for length in range(1, n + 1):
                try:
                    cycle_count_power_coefficient(n, p, length)
                    rec.expect(True, "unreachable")
                except InvariantError as exc:
                    rec.expect(False, f"cycle-count coefficient n={n} p={p} l={length}: {exc}")
    for a in range(13):
        for p in range(a + 2):
            rec.expect(
                fm.stirling_sum_identity_holds(a, p),
                f"stirling sum identity a={a} p={p}",
            )
    for a in range(13):
        for b in range(13):
            rec.expect(
                fm.binomial_sum_identity_holds(a, b),
                f"binomial sum identity a={a} b={b}",
            )
    for n in range(1, min(8, max_n) + 1):
        for alpha in _block_profiles(n):
            for r in range(n - sum(alpha) + 2):
                rec.equal(
                    fm.marked_composition_count_direct(n, alpha, r),
                    fm.marked_composition_count(n, sum(alpha), len(alpha), r),
                    f"marked compositions n={n} alpha={alpha} r={r}",
                )
    return rec.result("10", "supporting exact identities")


def check_strong_separation(max_n: int, threads: int = 1) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(6, max_n) + 1):
        for lam in partitions(n):
            for m in range(1, n + 1):
                table = st.strong_probability_table(lam, m)
                matrix = st.refinement_matrix(m)
                for i, coarse in enumerate(matrix.index):
                    recombined = sum(
                        coeff * table[fine]
                        for coeff, fine in zip(matrix.rows[i], matrix.index)
                    )
                    rec.equal(
                        recombined,
                        fm.separation_probability(lam, coarse).probability,
                        f"round trip lam={lam} profile={coarse}",
                    )
                for beta, prob in table.items():
                    count = orc.oracle_strong_pair_count(lam, beta, threads=threads)
                    space = block_tuple_count(n, beta) * conjugacy_class_size(lam)
                    rec.equal(
                        prob,
                        Fraction(count, space),
                        f"strong oracle lam={lam} beta={beta}",
                    )
            for alpha in partitions(n):
                value = st.connection_coefficient(lam, alpha)
                rec.equal(
                    value,
                    orc.oracle_connection_coefficient(lam, alpha),
                    f"connection lam={lam} alpha={alpha}",
                )
                if n <= 5 and len(set(alpha)) > 1:
                    blocks = []
                    start = 0
                    for a in reversed(alpha):
                        blocks.append(tuple(range(start, start + a)))
                        start += a
                    other = Permutation.from_cycles(n, blocks)
                    rec.equal(
                        orc.oracle_connection_coefficient(
                            lam, alpha, representative=other
                        ),
                        value,
                        f"representative independence lam={lam} alpha={alpha}",
                    )
    return rec.result("11", "strong separation and connection coefficients")


SUITES: dict[str, tuple[Callable[[int, int], CheckResult], ...]] = {
    "symmetry": (check_symmetry,),
    "formulas": (
        check_two_cycle_closed_form,
        check_colored_quadruples,
        check_colored_triples,
        check_p_cycles,
        check_fixed_point_lift,
        check_colored_matchings,
    ),
    "maps": (check_involution_series, check_one_face_maps),
    "lemmas": (check_lemma_identities,),
    "strong": (check_strong_separation,),
}

SUITE_ORDER = ("symmetry", "formulas", "maps", "lemmas", "strong")


def run_suites(
    names: Iterable[str], max_n: int = 6, threads: int = 1
) -> list[CheckResult]:
    requested = list(names)
    if "all" in requested:
        requested = list(SUITE_ORDER)
    unknown = [name for name in requested if name not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"choose all or one of {', '.join(SUITE_ORDER)}"
        )
    results = []
    for suite in SUITE_ORDER:
        if suite in requested:
            for check in SUITES[suite]:
                results.append(check(max_n, threads))
    return results
