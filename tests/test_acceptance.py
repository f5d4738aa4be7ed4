"""Acceptance suite: every criterion at its full stated range, exact equality.

Each test prints one PASS/FAIL line.  Criteria 1-11 delegate to the shared
verification suites (the same code the ``verify`` CLI subcommand runs) at
their stated bounds, with each one's check count pinned there as well;
criterion 12 runs the CLI itself twice and compares bytes.  The full
``verify --max-n 7`` report is pinned against the one recorded in
``tests/data/verify_golden.txt``.
"""

import io
import pathlib

from permsep import verification as vf
from permsep.cli import EXIT_OK, main


def _report(result: vf.CheckResult, checks: int):
    print(result.render())
    assert result.passed, result.render()
    assert result.checks == checks, result.render()


def test_criterion_1_two_cycle_closed_form():
    # n <= 9 against the piecewise form, n <= 7 against brute force
    _report(vf.check_two_cycle_closed_form(max_n=9), 38)


def test_criterion_2_symmetry():
    # n <= 7, every cycle type, every block profile: oracle == formula and
    # counts agree across profiles of equal size and length
    _report(vf.check_symmetry(max_n=7), 1_185)


def test_criterion_3_colored_quadruples():
    # n <= 5, all profiles, all block tuples, all feasible extra color counts
    _report(vf.check_colored_quadruples(max_n=5), 623)


def test_criterion_4_colored_triples():
    # n <= 6, all composition pairs
    _report(vf.check_colored_triples(max_n=6), 1_365)


def test_criterion_5_p_cycles():
    # n <= 7, all cycle counts, all block profiles
    _report(vf.check_p_cycles(max_n=7), 1_282)


def test_criterion_6_involution_series():
    # N <= 4, all block profiles of size <= 2N, including the printed-form
    # discrepancy of exactly (2N - m)! (5/18 vs 5/9 at N=2, blocks 1,1)
    _report(vf.check_involution_series(max_n=8), 732)


def test_criterion_7_fixed_point_lift():
    # base types with parts >= 2 and size <= 6, up to 3 added fixed points,
    # oracle cross-check wherever the lifted size stays <= 8
    _report(vf.check_fixed_point_lift(max_n=6), 2_736)


def test_criterion_8_one_face_maps():
    # N <= 5 (945 involutions at N=5)
    _report(vf.check_one_face_maps(max_n=10), 30)


def test_criterion_9_colored_matchings():
    # N <= 4, all color profiles
    _report(vf.check_colored_matchings(max_n=8), 40)


def test_criterion_10_lemma_identities():
    # involution coefficients N <= 5, cycle-count coefficients n <= 8,
    # Stirling and binomial sum identities up to 12, marked compositions n <= 8
    _report(vf.check_lemma_identities(max_n=8), 1_102)


def test_criterion_11_strong_separation():
    # n <= 6: strong tables and connection coefficients against their oracles
    _report(vf.check_strong_separation(max_n=6), 1_307)


def test_criterion_12_deterministic_verify_output():
    outputs = []
    codes = []
    for threads in ("1", "4"):
        buffer = io.StringIO()
        code = main(
            ["verify", "--suite", "all", "--max-n", "6", "--threads", threads],
            stdout=buffer,
        )
        codes.append(code)
        outputs.append(buffer.getvalue())
    identical = outputs[0] == outputs[1] and codes == [EXIT_OK, EXIT_OK]
    status = "PASS" if identical else "FAIL"
    print(
        f"{status} criterion-12 verify output byte-identical across thread counts "
        f"[{len(outputs[0].splitlines())} lines]"
    )
    assert identical


def test_verify_report_matches_the_recorded_check_counts():
    # each line carries [N checks], so dropping a check instance fails here
    golden = pathlib.Path(__file__).parent / "data" / "verify_golden.txt"
    results = sorted(vf.run_suites(["all"], max_n=7), key=lambda r: int(r.criterion))
    lines = [r.render() for r in results] + [f"OK ({len(results)} check groups)"]
    assert lines == golden.read_text().splitlines()
