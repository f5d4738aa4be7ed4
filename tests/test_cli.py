import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from permsep.cli import _SUBCOMMANDS, EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from permsep.usage import _build_parser

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


def fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_fresh_cli(*argv):
    """``python -m permsep ARGV`` in a fresh interpreter, with cold caches."""
    proc = subprocess.run(
        [sys.executable, "-m", "permsep", *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=300,
    )
    return proc.returncode, proc.stdout


def run_json(*argv):
    code, text = run_cli(*argv)
    return code, json.loads(text)


def test_sep_prob_both_methods_agree():
    code, payload = run_json(
        "sep-prob", "--lambda", "2,2", "--alpha", "1,1", "--method", "both"
    )
    assert code == EXIT_OK
    assert payload["format"] == "permsep-records-v1"
    records = payload["records"]
    assert [r["method"] for r in records] == ["generating-series", "oracle"]
    assert all(r["probability"] == "5/9" for r in records)
    assert all(r["count"] == "20" for r in records)


def test_lambda_auto_sorted_with_note():
    code, payload = run_json("sep-prob", "--lambda", "1,2", "--alpha", "1,1")
    assert code == EXIT_OK
    record = payload["records"][0]
    assert record["parameters"]["lambda"] == [2, 1]
    assert any("sorted" in w for w in record["warnings"])


def test_ncycle():
    code, payload = run_json("ncycle", "--n", "4", "--alpha", "1,1", "--float")
    assert code == EXIT_OK
    record = payload["records"][0]
    assert record["probability"] == "11/18"
    assert record["probability_float"].startswith("0.611111111111111")


def test_ncycle_and_sep_prob_make_one_kernel_call(monkeypatch):
    from permsep import formulas as fm

    calls = []
    kernel = fm._separated_count.__wrapped__  # uncached, so every call reaches it
    monkeypatch.setattr(fm, "_separated_count", lambda *key: calls.append(key) or kernel(*key))
    _, ncycle = run_json("ncycle", "--n", "9", "--alpha", "3,2,1")
    _, sep_prob = run_json("sep-prob", "--lambda", "9", "--alpha", "3,2,1")
    assert calls == [((9,), 6, 3)] * 2
    (ncycle,), (sep_prob,) = ncycle["records"], sep_prob["records"]
    assert ncycle["method"] == "two-cycles-closed-form"
    assert (ncycle["count"], ncycle["probability"]) == (sep_prob["count"], sep_prob["probability"])


def test_ncycle_count_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    code, payload = run_json("ncycle", "--n", "1800", "--alpha", "1,1")
    assert code == EXIT_OK
    assert len(payload["records"][0]["count"]) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_pcycles():
    code, payload = run_json("pcycles", "--n", "3", "--p", "2", "--alpha", "1,1")
    assert code == EXIT_OK
    assert payload["records"][0]["probability"] == "2/3"


def test_involution_reports_both_forms():
    code, payload = run_json("involution", "--N", "2", "--alpha", "1,1")
    assert code == EXIT_OK
    by_method = {r["method"]: r for r in payload["records"]}
    assert by_method["involution-series"]["probability"] == "5/9"
    assert by_method["printed-form"]["probability"] == "5/18"
    assert by_method["printed-form"]["warnings"]


def test_lift():
    code, payload = run_json("lift", "--lambda", "2", "--r", "1", "--alpha", "1,1")
    assert code == EXIT_OK
    record = payload["records"][0]
    assert record["count"] == "12"
    assert record["probability"] == "2/3"


def test_strong_table():
    code, payload = run_json("strong", "--lambda", "3", "--m", "3")
    assert code == EXIT_OK
    table = {
        tuple(r["parameters"]["beta"]): r["probability"] for r in payload["records"]
    }
    assert table == {(3,): "1/2", (2, 1): "0/1", (1, 1, 1): "1/2"}


def test_connection():
    code, payload = run_json("connection", "--lambda", "3", "--alpha", "1,1,1")
    assert code == EXIT_OK
    assert payload["records"][0]["count"] == "2"


def test_gtable_dump():
    code, payload = run_json("gtable", "--n", "2", "--m", "1", "--k", "1")
    assert code == EXIT_OK
    entries = payload["records"][0]["details"]["entries"]
    as_dict = {(tuple(e["partition"]), e["r"]): e["coefficient"] for e in entries}
    assert as_dict == {((2,), 0): "4", ((1, 1), 0): "4", ((2,), 1): "2"}


def test_hz_polynomial():
    code, payload = run_json("hz", "--N", "2")
    assert code == EXIT_OK
    details = payload["records"][0]["details"]
    assert details["monomial"] == ["0", "1", "0", "2"]
    assert details["binomial_basis"] == {"1": "3", "2": "12", "3": "12"}


def test_hz_prints_each_coefficient_exactly(monkeypatch):
    from permsep import polynomials as pl

    series = pl.BinomialPolynomial({1: Fraction(1, 2), 2: Fraction(3)})
    monkeypatch.setattr(pl, "one_face_map_series", lambda pairs: series)
    code, payload = run_json("hz", "--N", "2")
    assert code == EXIT_OK
    details = payload["records"][0]["details"]
    # t/2 + 3 C(t, 2) = (3/2) t^2 - t: no coefficient is truncated to an int
    assert details["binomial_basis"] == {"1": "1/2", "2": "3"}
    assert details["monomial"] == ["0", "-1", "3/2"]


def test_hz_one_face_maps_at_600_edges():
    pairs = 600
    code, payload = run_json("hz", "--N", str(pairs))
    assert code == EXIT_OK
    monomial = [int(c) for c in payload["records"][0]["details"]["monomial"]]
    assert len(monomial) == pairs + 2
    # planar maps at t^(N+1), and every gluing of the 2N-gon once
    assert monomial[pairs + 1] == math.comb(2 * pairs, pairs) // (pairs + 1)
    assert sum(monomial) == math.prod(range(1, 2 * pairs, 2))


def test_table_csv_and_json_agree():
    args = ("table", "--n", "4", "--alphas", "1,1;2,1", "--method", "both")
    code_json, payload = run_json(*args, "--format", "json")
    assert code_json == EXIT_OK
    code_csv, text = run_cli(*args, "--format", "csv")
    assert code_csv == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(payload["records"])
    for row, record in zip(rows, payload["records"]):
        assert row["lambda"] == ",".join(str(p) for p in record["parameters"]["lambda"])
        assert row["alpha"] == ",".join(str(p) for p in record["parameters"]["alpha"])
        assert row["count"] == record["count"]
        assert row["probability"] == record["probability"]
        assert row["method"] == record["method"]
        assert int(row["m"]) == sum(record["parameters"]["alpha"])
        assert int(row["k"]) == len(record["parameters"]["alpha"])


def test_table_all_alphas():
    code, payload = run_json("table", "--n", "3", "--alphas", "all")
    assert code == EXIT_OK
    profiles = [tuple(r["parameters"]["alpha"]) for r in payload["records"]]
    assert profiles == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_verify_ok():
    code, text = run_cli("verify", "--suite", "lemmas", "--max-n", "4")
    assert code == EXIT_OK
    assert text.strip().endswith("OK (1 check groups)")
    assert text.startswith("PASS criterion-10")


def test_verify_byte_identical_across_threads():
    # fresh interpreters, so the checks run concurrently on cold caches
    runs = [
        run_fresh_cli("verify", "--suite", "all", "--max-n", "6", "--threads", threads)
        for threads in ("1", "2", "3")
    ]
    assert runs[0][0] == EXIT_OK
    assert runs[0][1].endswith("OK (11 check groups)\n")
    assert runs[0] == runs[1] == runs[2]


def test_verify_shares_run_every_check_once_and_do_not_change_between_runs():
    # the split reads declared weights only: two fresh interpreters with
    # different hash seeds give the same shares as this process
    code = """
        import json
        from permsep.verification import SUITE_ORDER, SUITES, _shares
        checks = [check for name in SUITE_ORDER for check in SUITES[name]]
        print(json.dumps({
            workers: [[checks[i].__name__ for i in share] for share in _shares(checks, workers)]
            for workers in range(1, 13)
        }))
    """
    runs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
            text=True, env=dict(fresh_env(), PYTHONHASHSEED=seed), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]

    from permsep.verification import SUITE_ORDER, SUITES, _shares

    checks = [check for name in SUITE_ORDER for check in SUITES[name]]
    for workers in range(1, 13):
        shares = _shares(checks, workers)
        assert [[checks[i].__name__ for i in share] for share in shares] == runs[0][str(workers)]
        assert 1 <= len(shares) <= workers
        assert sorted(i for share in shares for i in share) == list(range(len(checks)))
        assert all(share == sorted(share) for share in shares)
    # at two workers the pair-oracle checks (criteria 1, 2, 5 and 7) share the
    # caller's process, and the other checks the forked one
    names = [[checks[i].__name__ for i in share] for share in _shares(checks, 2)]
    assert names[0] == [
        "check_symmetry", "check_two_cycle_closed_form", "check_p_cycles",
        "check_fixed_point_lift",
    ]
    # checks in no cache group go round robin, the caller taking the first
    assert _shares([len, abs, min, max, sum], 2) == [[0, 2, 4], [1, 3]]


def test_verify_fan_out_under_a_short_switch_interval():
    # more workers than checks at max_n 5, forked from a process that
    # switches threads every 10 us, on cold caches; then the same suites
    # serially on the now-warm caches.  Counting os.fork shows that the
    # fan-out really forks (one worker per check beyond the caller's own)
    # and that one worker forks nothing.
    code = """
        import os, sys
        from permsep.verification import SUITE_ORDER, SUITES, run_suites
        checks = sum(len(SUITES[name]) for name in SUITE_ORDER)
        forks = []
        real_fork = os.fork
        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid
        os.fork = counting_fork
        sys.setswitchinterval(1e-5)
        stressed = [r.render() for r in run_suites(["all"], max_n=5, threads=16)]
        sys.setswitchinterval(0.005)
        assert 1 <= len(forks) <= checks - 1, (len(forks), checks)
        del forks[:]
        serial = [r.render() for r in run_suites(["all"], max_n=5, threads=1)]
        assert forks == [], forks
        assert len(serial) == 11 and all(r.startswith("PASS") for r in serial), serial
        assert stressed == serial, (stressed, serial)
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=fresh_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "failing, error",
    [
        ("raise ValueError('no luck')", "RuntimeError: failing raised in a verify worker:\n"),
        ("os._exit(1)", "RuntimeError: verify worker exited without reporting failing\n"),
        ("sys.exit(0)", "RuntimeError: verify worker exited without reporting failing\n"),
    ],
    ids=["raises", "exits-without-writing", "raises-system-exit"],
)
def test_verify_worker_failure_names_the_check_and_leaves_no_child(failing, error):
    # the failing check is the only one in worker 1's share; the caller's
    # own share passes, so the error can only come from the worker's pipe
    code = f"""
        import os, sys
        from permsep import verification as vf

        def passing(max_n):
            return vf.CheckResult("1", "passing", True, 1)

        def failing(max_n):
            {failing}

        vf.SUITES["symmetry"] = (passing,)
        vf.SUITES["lemmas"] = (failing,)
        try:
            vf.run_suites(["symmetry", "lemmas"], max_n=1, threads=2)
        except RuntimeError as exc:
            print(f"{{type(exc).__name__}}: {{exc}}")
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(error), proc.stdout
    assert ("ValueError: no luck\n" in proc.stdout) == ("ValueError" in failing), proc.stdout
    assert proc.stdout.endswith("\nno child left\n"), proc.stdout


def test_verify_reaps_its_workers_when_its_own_share_raises():
    code = """
        import os
        from permsep import verification as vf

        def failing(max_n):
            raise ValueError("the caller's own check")

        def slow(max_n):
            return vf.CheckResult("1", "slow", True, sum(range(10**6)))

        vf.SUITES["symmetry"] = (failing,)
        vf.SUITES["lemmas"] = (slow,)
        try:
            vf.run_suites(["symmetry", "lemmas"], max_n=1, threads=2)
        except ValueError as exc:
            print(exc)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the caller's own check\nno child left\n"


def test_invalid_arguments_exit_2():
    code, _ = run_cli("sep-prob", "--lambda", "2,x", "--alpha", "1")
    assert code == EXIT_USAGE
    code, _ = run_cli("nonsense-command")
    assert code == EXIT_USAGE
    code, _ = run_cli("gtable", "--n", "3", "--m", "4", "--k", "1")
    assert code == EXIT_USAGE
    code, text = run_cli("gtable", "--n", "0", "--m", "0", "--k", "0")
    assert code == EXIT_USAGE and text == ""
    code, text = run_cli("pcycles", "--n", "3", "--p", "0", "--alpha", "5")
    assert code == EXIT_USAGE and text == ""
    for max_m in ("0", "-1", "6"):
        code, text = run_cli("table", "--n", "5", "--alphas", "all", "--max-m", max_m)
        assert code == EXIT_USAGE and text == ""
    # --max-m only bounds --alphas all; with listed profiles it is refused
    for max_m in ("1", "5"):
        code, text = run_cli("table", "--n", "5", "--alphas", "3,2", "--max-m", max_m)
        assert code == EXIT_USAGE and text == ""
    for n in ("0", "-2"):
        code, text = run_cli("table", "--n", n)
        assert code == EXIT_USAGE and text == ""
    # blocks larger than the ground set, whichever method would run
    for method in ("formula", "oracle", "both"):
        code, text = run_cli("sep-prob", "--lambda", "3", "--alpha", "4", "--method", method)
        assert code == EXIT_USAGE and text == ""
        code, text = run_cli("table", "--n", "3", "--alphas", "4", "--method", method)
        assert code == EXIT_USAGE and text == ""
    for option, value in (("--max-n", "-1"), ("--threads", "0"), ("--threads", "-5")):
        code, text = run_cli("verify", "--suite", "lemmas", option, value)
        assert code == EXIT_USAGE and text == ""


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("ncycle", "--n", "3", "--alpha", "2,2"), "total block size exceeds n"),
        (("ncycle", "--n", "0", "--alpha", "1"), "total block size exceeds n"),
        (("lift", "--lambda", "2,2", "--r", "1", "--alpha", "4,2"),
         "total block size exceeds n + r"),
        (("involution", "--N", "2", "--alpha", "3,2"), "total block size exceeds 2 * pairs"),
        (("pcycles", "--n", "3", "--p", "2", "--alpha", "2,2"), "total block size exceeds n"),
        (("strong", "--lambda", "3,1", "--m", "5"), "need 1 <= total block size <= n"),
        (("connection", "--lambda", "3,1", "--alpha", "3"),
         "alpha must have size n for connection coefficients"),
        (("connection", "--lambda", "3,1", "--alpha", "3,2"),
         "alpha must have size n for connection coefficients"),
    ],
    ids=["ncycle", "ncycle-n-0", "lift", "involution", "pcycles", "strong",
         "connection-below-n", "connection-above-n"],
)
def test_sizes_out_of_range_exit_2_with_one_stderr_line(argv, reason, capsys):
    # each subcommand leaves the size checks to the library, which words them
    assert run_cli(*argv) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"permsep: invalid arguments: {reason}\n"


def test_verify_unknown_suite_exit_2():
    code, text = run_cli("verify", "--suite", "bogus")
    assert code == EXIT_USAGE and text == ""


def test_budget_exceeded_exit_3(capsys):
    code, _ = run_cli(
        "sep-prob", "--lambda", "11,1", "--alpha", "1,1", "--method", "oracle"
    )
    assert code == EXIT_BUDGET
    # the pair oracle answers up to n = 9 and refuses n = 10 with one stderr
    # line and nothing on stdout
    oracle = ("--alpha", "1,1", "--method", "oracle")
    assert run_cli("sep-prob", "--lambda", "9", *oracle)[0] == EXIT_OK
    capsys.readouterr()
    assert run_cli("sep-prob", "--lambda", "10", *oracle) == (EXIT_BUDGET, "")
    assert capsys.readouterr().err == (
        "permsep: budget exceeded: ground set of size 10 exceeds oracle budget max_n=9\n"
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_refuses_before_its_first_record(fmt, capsys):
    # table streams its records, so every refusal must come before the first
    # byte: a block profile larger than n late in the list, and an oracle
    # asked for a ground set beyond its limit
    for method in ("formula", "oracle", "both"):
        argv = ("table", "--n", "3", "--alphas", "1;4", "--method", method, "--format", fmt)
        assert run_cli(*argv) == (EXIT_USAGE, "")
    for method in ("oracle", "both"):
        argv = ("table", "--n", "10", "--method", method, "--format", fmt)
        assert run_cli(*argv) == (EXIT_BUDGET, "")
    assert capsys.readouterr().err.endswith(
        "permsep: budget exceeded: ground set of size 10 exceeds oracle budget max_n=9\n"
    )


def test_table_exit_code_reports_a_late_disagreement(monkeypatch):
    import permsep.oracles as orc

    real = orc.oracle_separated_pair_count

    def off_by_one_at_the_end(lam, alpha):
        return real(lam, alpha) + (tuple(alpha) == (3,))

    monkeypatch.setattr(orc, "oracle_separated_pair_count", off_by_one_at_the_end)
    code, text = run_cli("table", "--n", "4", "--alphas", "1;2;3", "--method", "both")
    assert code == EXIT_MISMATCH
    flagged = [
        record["parameters"]["alpha"]
        for record in json.loads(text)["records"]
        if "methods disagree; reporting all values" in record["warnings"]
    ]
    assert flagged == [[3], [3]]


def test_json_round_trip_lossless():
    code, text = run_cli("sep-prob", "--lambda", "4,2,1", "--alpha", "2,1")
    assert code == EXIT_OK
    payload = json.loads(text)
    again = json.loads(json.dumps(payload))
    assert again == payload
    record = payload["records"][0]
    num, den = record["probability"].split("/")
    import math
    from fractions import Fraction

    assert math.gcd(int(num), int(den)) == 1
    assert Fraction(record["probability"]) == Fraction(int(num), int(den))


def parse_output(parser, argv):
    """(exit code, stdout, stderr) of one ``parse_args`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_help_lists_every_subcommand():
    code, text, _ = parse_output(_build_parser(), ["--help"])
    assert code == 0
    names = list(_SUBCOMMANDS)
    assert len(names) == 11
    assert all(f"    {name} " in text for name in names), text
    assert text.index("sep-prob") < text.index("table ")


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
def test_subcommand_text_same_alone_or_with_all(name):
    alone, full = _build_parser(name), _build_parser()
    assert list(alone._subparsers._group_actions[0].choices) == [name]
    code, text, _ = parse_output(alone, [name, "--help"])
    assert code == 0 and text.startswith(f"usage: permsep {name} ")
    # a missing required option, or (for verify, which has none) an unknown
    # one, which the top-level parser reports with its own usage line
    code, _, error = parse_output(alone, [name] if name != "verify" else [name, "--bogus"])
    assert code == EXIT_USAGE and "error: " in error
    for argv in ([name, "--help"], [name], [name, "--bogus"]):
        assert parse_output(alone, argv) == parse_output(full, argv), argv


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sep-prob", "--lambda", "3,2", "--alpha", "1"],
        ["table", "--n", "6", "--alphas", "all"],
        ["verify", "--max-n", "4", "--threads", "2"],
        ["--help"],
        ["strong", "--help"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_141_without_a_traceback(argv, buffered):
    # stdout is a pipe whose reader has gone before the first byte; buffered,
    # the write fails only when stdout is flushed
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "permsep", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == ""  # no traceback, no "Exception ignored" at exit
