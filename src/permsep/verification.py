"""Cross-verification suites: every closed form against its brute-force oracle.

Each check sweeps a family of instances, comparing exact values (tolerance is
zero everywhere) and returns a CheckResult.  The suites are shared between
the command-line ``verify`` subcommand and the acceptance test module.

Sweeps indexed by the ground-set size cap that size at ``max_n``
(involution checks use ``max_n // 2`` pairs), with one exception: the
fixed-point lift (criterion 7) caps only its base size n, then adds up to
three fixed points, so at ``max_n`` 7 it runs the oracle at ground-set size
8 and the series path at size 9.  Pure polynomial identities are cheap and
always run at their full stated ranges.  Each check takes ``max_n`` only and
runs serially, and formats the text of a comparison only when it fails.
`run_suites` splits the requested checks over ``threads`` worker processes,
the caller being one of them and the others forked, since the checks are
pure Python and threads would only take turns holding the interpreter lock.
The checks that read the same oracle caches (`CACHE_GROUPS`) go whole to one
worker, the heaviest group first to the least loaded, by declared weights
only.  Every check builds its own result, so the results and therefore the
rendered report are identical for any worker count.
"""

from __future__ import annotations

import io
import marshal
import math
import os
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import crosscheck as xc
from . import displacement  # noqa: F401  (loaded once, before any worker forks)
from . import formulas as fm
from . import oracles as orc
from . import polynomials as pl
from . import strong as st
from . import variants as va
from .partitions import (
    compositions,
    conjugacy_class_size,
    partitions,
    perfect_matching_count,
    stirling_first_unsigned,
)
from .symfunc import power_sum_coefficient, transition_matrices


class CheckResult(NamedTuple):
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
    """Counts checks and keeps the text of those that fail.  A label is a
    `str.format` template and its arguments, formatted only on failure, so
    a passing check formats nothing."""

    def __init__(self):
        self.checks = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, label: str, *args) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(label.format(*args))

    def equal(self, got, want, label: str, *args) -> None:
        self.checks += 1
        if got != want:
            self.failures.append(f"{label.format(*args)}: got {got}, want {want}")

    def result(self, criterion: str, name: str) -> CheckResult:
        return CheckResult(
            criterion=criterion,
            name=name,
            passed=not self.failures,
            checks=self.checks,
            failures=tuple(self.failures),
        )


def all_compositions(total: int) -> Iterable[tuple[int, ...]]:
    """All compositions of ``total`` >= 1, by increasing length, lexicographic within."""
    for length in range(1, total + 1):
        yield from compositions(total, length)


def _block_profiles(total_max: int) -> Iterable[tuple[int, ...]]:
    """All partition-shaped block profiles of size 1..total_max."""
    for m in range(1, total_max + 1):
        yield from partitions(m)


def _oracle_probability(lam, alpha) -> Fraction:
    n = sum(lam)
    count = orc.oracle_separated_pair_count(lam, alpha)
    return Fraction(count, fm.pair_space(n, alpha, conjugacy_class_size(lam)))


def check_two_cycle_closed_form(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(4, min(9, max_n) + 1):
        for k in range(2, min(n, 5) + 1):
            alpha = (1,) * k
            closed = xc.separation_probability_two_cycles(n, alpha).probability
            rec.equal(
                closed,
                xc.singleton_blocks_probability(n, k),
                "piecewise form n={} k={}", n, k,
            )
            if n <= min(7, max_n):
                rec.equal(closed, _oracle_probability((n,), alpha), "oracle n={} k={}", n, k)
    return rec.result("1", "two-full-cycles closed form")


def check_symmetry(max_n: int) -> CheckResult:
    rec = _Recorder()
    top = min(7, max_n)
    profiles_of = {
        (m, k): [a for a in partitions(m) if len(a) == k]
        for m in range(1, top + 1)
        for k in range(1, m + 1)
    }
    for n in range(1, top + 1):
        for lam in partitions(n):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    profiles = profiles_of[m, k]
                    counts = [orc.oracle_separated_pair_count(lam, a) for a in profiles]
                    formula = fm.separated_pair_count(lam, profiles[0])
                    for alpha, count in zip(profiles, counts):
                        rec.equal(count, formula, "lam={} alpha={}", lam, alpha)
    return rec.result("2", "separated counts depend only on (m, k)")


def check_colored_quadruples(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(5, max_n) + 1):
        for gamma in partitions(n):
            for alpha in _block_profiles(n):
                for r in range(n - sum(alpha) + 2):
                    rec.equal(
                        xc.oracle_separated_colored_count(gamma, alpha, r),
                        xc.separated_colored_count(
                            n, len(gamma), sum(alpha), len(alpha), r
                        ),
                        "n={} gamma={} alpha={} r={}", n, gamma, alpha, r,
                    )
    return rec.result("3", "separated colored quadruple formula")


def check_colored_triples(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(6, max_n) + 1):
        profiles = list(all_compositions(n))
        for gamma in profiles:
            for delta in profiles:
                rec.equal(
                    xc.oracle_colored_factorization_count(gamma, delta),
                    xc.colored_factorization_count(n, len(gamma), len(delta)),
                    "n={} gamma={} delta={}", n, gamma, delta,
                )
    return rec.result("4", "colored factorization formula")


def check_p_cycles(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(7, max_n) + 1):
        for alpha in _block_profiles(n):
            for p in range(1, n + 1):
                oracle_total = sum(
                    orc.oracle_separated_pair_count(lam, alpha)
                    for lam in partitions(n)
                    if len(lam) == p
                )
                count = va.separated_count_p_cycles(n, p, alpha)
                rec.equal(count, oracle_total, "count n={} p={} alpha={}", n, p, alpha)
                prob = va.separation_probability_p_cycles(n, p, alpha).probability
                space = fm.pair_space(n, alpha, stirling_first_unsigned(n, p))
                rec.equal(
                    prob,
                    Fraction(oracle_total, space),
                    "probability n={} p={} alpha={}", n, p, alpha,
                )
    return rec.result("5", "fixed-cycle-count closed form")


def _padded(values: Iterable[Fraction], size: int) -> list[Fraction]:
    out = [Fraction(v) for v in values]
    return out + [Fraction(0)] * (size - len(out))


def check_involution_series(max_n: int) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(4, max_n // 2) + 1):
        n = 2 * pairs
        for alpha in _block_profiles(n):
            m, k = sum(alpha), len(alpha)
            series = xc.involution_series(pairs, alpha)
            histogram = xc.oracle_involution_series(pairs, alpha)
            monomial = xc.involution_series_monomial(pairs, alpha)
            size = max(len(monomial), max(histogram, default=-1) + 1)
            rec.equal(
                _padded(monomial, size),
                [Fraction(histogram.get(j, 0)) for j in range(size)],
                "series N={} alpha={}", pairs, alpha,
            )
            oracle_count = sum(histogram.values())
            rec.equal(
                series.evaluate(1 - k),
                Fraction(oracle_count),
                "pair count N={} alpha={}", pairs, alpha,
            )
            sep = va.separation_probability_involution(pairs, alpha)
            space = fm.pair_space(n, alpha, perfect_matching_count(pairs))
            rec.equal(
                sep.probability,
                Fraction(oracle_count, space),
                "probability N={} alpha={}", pairs, alpha,
            )
            printed = xc.involution_probability_printed_form(pairs, alpha)
            rec.equal(
                printed * math.factorial(n - m),
                sep.probability,
                "printed-form factor N={} alpha={}", pairs, alpha,
            )
        # the series is the all-twos power-sum slice of the general table
        for alpha in list(_block_profiles(n)) + [()]:
            m, k = sum(alpha), len(alpha)
            table = pl.gen_series_table(n, m, k)
            series = xc.involution_series(pairs, alpha)
            for r in range(n - m + 1):
                coeffs = {lam: c for (lam, j), c in table.items() if j == r}
                rec.equal(
                    power_sum_coefficient(coeffs, (2,) * pairs),
                    series.coefficient(r),
                    "series slice N={} alpha={} r={}", pairs, alpha, r,
                )
    rec.expect(
        xc.involution_probability_printed_form(2, (1, 1)) == Fraction(5, 18)
        and va.separation_probability_involution(2, (1, 1)).probability
        == Fraction(5, 9),
        "printed vs count-based value at N=2, alpha=(1,1)",
    )
    return rec.result("6", "fixed-point-free involution series")


def check_fixed_point_lift(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(2, min(6, max_n) + 1):
        for lam in partitions(n):
            if any(part < 2 for part in lam):
                continue
            for r in range(4):
                lifted = tuple(sorted(lam + (1,) * r, reverse=True))
                for alpha in _block_profiles(n + r):
                    value = xc.add_fixed_points_count(lam, r, alpha)
                    rec.equal(
                        value,
                        fm.separated_pair_count(lifted, alpha),
                        "series path lam={} r={} alpha={}", lam, r, alpha,
                    )
                    if n + r <= 8:
                        rec.equal(
                            value,
                            orc.oracle_separated_pair_count(lifted, alpha),
                            "oracle lam={} r={} alpha={}", lam, r, alpha,
                        )
    return rec.result("7", "fixed-point lifting relation")


def check_one_face_maps(max_n: int) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(5, max_n // 2) + 1):
        series = pl.one_face_map_series(pairs)
        rec.equal(
            dict(series.coeffs),
            dict(xc.involution_series(pairs, ()).coeffs),
            "series equality N={}", pairs,
        )
        histogram = xc.oracle_involution_series(pairs, ())
        monomial = series.to_monomial()
        expected = [Fraction(0)] * len(monomial)
        for j, ways in histogram.items():
            expected[j] = Fraction(ways)
        rec.equal(list(monomial), expected, "oracle N={}", pairs)
        for r, c in series.coeffs.items():
            rec.expect(
                c.denominator == 1 and c >= 0,
                "coefficient at N={} r={} not a nonnegative integer: {}", pairs, r, c,
            )
    return rec.result("8", "one-face map vertex polynomial")


def check_colored_matchings(max_n: int) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(4, max_n // 2) + 1):
        for gamma in partitions(2 * pairs):
            rec.equal(
                xc.oracle_colored_matching_count(pairs, gamma),
                xc.colored_matching_count(pairs, len(gamma)),
                "N={} gamma={}", pairs, gamma,
            )
    return rec.result("9", "colored one-face map refinement")


def check_lemma_identities(max_n: int) -> CheckResult:
    rec = _Recorder()
    for pairs in range(1, min(5, max(1, max_n // 2)) + 1):
        for surplus in range(pairs + 1):
            # the all-twos coefficient of the sum of the monomial functions
            # with pairs + surplus parts
            length_sum = {
                mu: 1 for mu in partitions(2 * pairs) if len(mu) == pairs + surplus
            }
            rec.equal(
                power_sum_coefficient(length_sum, (2,) * pairs),
                Fraction(
                    (-1) ** surplus,
                    2**surplus * math.factorial(surplus) * math.factorial(pairs - surplus),
                ),
                "involution coefficient N={} s={}", pairs, surplus,
            )
    for n in range(1, min(8, max_n) + 1):
        index = partitions(n)
        inverse = transition_matrices(n)[1]
        for p in range(1, n + 1):
            for length in range(1, n + 1):
                # the power-sum coefficients with p parts, summed, of the sum
                # of the monomial functions with ``length`` parts
                rec.equal(
                    sum(
                        row[j]
                        for lam, row in zip(index, inverse)
                        if len(lam) == length
                        for j, mu in enumerate(index)
                        if len(mu) == p
                    ),
                    (-1) ** (length - p)
                    * math.comb(n - 1, length - 1)
                    * Fraction(stirling_first_unsigned(length, p), math.factorial(length)),
                    "cycle-count coefficient n={} p={} l={}", n, p, length,
                )
    for a in range(13):
        for p in range(a + 2):
            rec.expect(
                xc.stirling_sum_identity_holds(a, p),
                "stirling sum identity a={} p={}", a, p,
            )
    for a in range(13):
        for b in range(13):
            rec.expect(
                xc.binomial_sum_identity_holds(a, b),
                "binomial sum identity a={} b={}", a, b,
            )
    for n in range(1, min(8, max_n) + 1):
        for alpha in _block_profiles(n):
            for r in range(n - sum(alpha) + 2):
                rec.equal(
                    xc.marked_composition_count_direct(n, alpha, r),
                    xc.marked_composition_count(n, sum(alpha), len(alpha), r),
                    "marked compositions n={} alpha={} r={}", n, alpha, r,
                )
    return rec.result("10", "supporting exact identities")


def check_strong_separation(max_n: int) -> CheckResult:
    rec = _Recorder()
    for n in range(1, min(6, max_n) + 1):
        for lam in partitions(n):
            for m in range(1, n + 1):
                table = st.strong_probability_table(lam, m)
                index = partitions(m)
                for coarse, row in zip(index, xc.refinement_matrix(m)):
                    recombined = sum(
                        coeff * table[fine] for coeff, fine in zip(row, index) if coeff
                    )
                    rec.equal(
                        recombined,
                        fm.separation_probability(lam, coarse).probability,
                        "round trip lam={} profile={}", lam, coarse,
                    )
                for beta, prob in table.items():
                    count = xc.oracle_strong_pair_count(lam, beta)
                    space = fm.pair_space(n, beta, conjugacy_class_size(lam))
                    rec.equal(
                        prob,
                        Fraction(count, space),
                        "strong oracle lam={} beta={}", lam, beta,
                    )
            for alpha in partitions(n):
                value = st.connection_coefficient(lam, alpha)
                rec.equal(
                    value,
                    xc.oracle_connection_coefficient(lam, alpha),
                    "connection lam={} alpha={}", lam, alpha,
                )
                if n <= 5 and len(set(alpha)) > 1:
                    other = xc.canonical_type_representative(tuple(reversed(alpha)))
                    rec.equal(
                        xc.oracle_connection_coefficient(
                            lam, alpha, representative=other
                        ),
                        value,
                        "representative independence lam={} alpha={}", lam, alpha,
                    )
    return rec.result("11", "strong separation and connection coefficients")


SUITES: dict[str, tuple[Callable[[int], CheckResult], ...]] = {
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

# The checks that share oracle caches, each group with its fresh run time in
# ms at max_n 7 (2 cores, CPython 3.11.7): the pair-oracle counts and class
# tallies; the strong histograms; the coloring totals; the transition
# matrices; the involution histograms.  `run_suites` gives each group whole
# to one worker, and a check in no group counts as a group of weight 1.
CACHE_GROUPS: tuple[tuple[int, tuple[Callable[[int], CheckResult], ...]], ...] = (
    (85, (check_two_cycle_closed_form, check_symmetry, check_p_cycles, check_fixed_point_lift)),
    (42, (check_strong_separation,)),
    (21, (check_colored_quadruples, check_colored_triples)),
    (15, (check_lemma_identities,)),
    (12, (check_involution_series, check_one_face_maps, check_colored_matchings)),
)


def _fork_share(share: list[Callable[[int], CheckResult]], max_n: int) -> tuple[int, int]:
    """Fork a worker that runs the checks of ``share`` in order and writes
    each one's `CheckResult` fields to a pipe as soon as it has them, one
    marshalled tuple per check; a check that raises writes its traceback as
    a str instead and ends the share.  Return the worker's pid and the read
    end of its pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            for check in share:
                try:
                    reply = tuple(check(max_n))
                except Exception:
                    import traceback

                    reply = traceback.format_exc()
                marshal.dump(reply, pipe)
                pipe.flush()
                if isinstance(reply, str):
                    break
        status = 0
    finally:
        # never return into the caller's code, nor flush its inherited buffers
        os._exit(status)


def _reap(pid: int, read_fd: int) -> bytes:
    """Everything a worker wrote, read to the end, once the worker is gone."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            return pipe.read()
    finally:
        os.waitpid(pid, 0)


def _decode(data: bytes, share: list[Callable[[int], CheckResult]]) -> list[CheckResult]:
    stream = io.BytesIO(data)
    results = []
    for check in share:
        try:
            reply = marshal.load(stream)
        except EOFError:
            raise RuntimeError(
                f"verify worker exited without reporting {check.__name__}"
            ) from None
        if isinstance(reply, str):
            raise RuntimeError(f"{check.__name__} raised in a verify worker:\n{reply}")
        results.append(CheckResult(*reply))
    return results


def _shares(checks: list[Callable[[int], CheckResult]], workers: int) -> list[list[int]]:
    """The positions in ``checks`` that each of ``workers`` workers runs, in
    order, empty shares dropped.  The groups of `CACHE_GROUPS` go whole, the
    heaviest first (ties in order of their first check), each to the least
    loaded worker (the lowest numbered on ties), so checks in no group go
    round robin: worker i runs checks i, i + w, ... of w.  The rule reads
    declared weights only, so the split is the same on every run."""
    group_of = {check: (weight, group) for weight, group in CACHE_GROUPS for check in group}
    units: dict[object, list[int]] = {}
    for i, check in enumerate(checks):
        units.setdefault(group_of.get(check, (1, i)), []).append(i)
    loads, shares = [0] * workers, [[] for _ in range(workers)]
    for (weight, _), positions in sorted(units.items(), key=lambda unit: -unit[0][0]):
        w = loads.index(min(loads))
        loads[w] += weight
        shares[w] += positions
    return [sorted(share) for share in shares if share]


def run_suites(
    names: Iterable[str], max_n: int = 6, threads: int = 1
) -> list[CheckResult]:
    """Run the checks of the named suites ("all" for every suite), in suite
    order, split over ``threads`` worker processes, the caller being one.

    `_shares` splits the checks over min(threads, number of checks) workers
    so that the checks of one `CACHE_GROUPS` group share one process's
    caches.  The caller runs the first share itself and forks a worker for
    each other one, so ``threads=1`` (or a platform without `os.fork`) forks
    nothing.  The caller reads and reaps every worker even when its own
    share raises; a worker whose check raised, or that exited before
    reporting one, makes this raise a RuntimeError naming that check.  Each
    check returns its own result, and results are kept by position, so the
    results do not depend on ``threads``.  Forking is safe here because
    nothing in `permsep` starts a thread; a caller that runs threads of its
    own should pass 1."""
    requested = list(names)
    if "all" in requested:
        requested = list(SUITE_ORDER)
    unknown = [name for name in requested if name not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s): {', '.join(unknown)}; "
            f"choose all or one of {', '.join(SUITE_ORDER)}"
        )
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    checks = [
        check for suite in SUITE_ORDER if suite in requested for check in SUITES[suite]
    ]
    workers = min(threads, max(len(checks), 1)) if hasattr(os, "fork") else 1
    positions = _shares(checks, workers) or [[]]
    shares = [[checks[i] for i in share] for share in positions]
    children: list[tuple[int, int]] = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(share, max_n))
        own = [check(max_n) for check in shares[0]]
    finally:
        replies = [_reap(pid, read_fd) for pid, read_fd in children]
    decoded = [own] + [_decode(data, share) for share, data in zip(shares[1:], replies)]
    results: list = [None] * len(checks)
    for share, got in zip(positions, decoded):
        for i, result in zip(share, got):
            results[i] = result
    return results
