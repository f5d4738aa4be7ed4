import csv
import io
import json

from permsep.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


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
    _, first = run_cli("verify", "--suite", "symmetry", "--max-n", "5", "--threads", "1")
    _, second = run_cli("verify", "--suite", "symmetry", "--max-n", "5", "--threads", "3")
    assert first == second


def test_invalid_arguments_exit_2():
    code, _ = run_cli("sep-prob", "--lambda", "2,x", "--alpha", "1")
    assert code == EXIT_USAGE
    code, _ = run_cli("nonsense-command")
    assert code == EXIT_USAGE
    code, _ = run_cli("gtable", "--n", "3", "--m", "4", "--k", "1")
    assert code == EXIT_USAGE
    code, text = run_cli("pcycles", "--n", "3", "--p", "0", "--alpha", "5")
    assert code == EXIT_USAGE and text == ""
    for max_m in ("0", "-1", "6"):
        code, text = run_cli("table", "--n", "5", "--alphas", "all", "--max-m", max_m)
        assert code == EXIT_USAGE and text == ""


def test_verify_unknown_suite_exit_2():
    code, text = run_cli("verify", "--suite", "bogus")
    assert code == EXIT_USAGE and text == ""


def test_budget_exceeded_exit_3():
    code, _ = run_cli(
        "sep-prob", "--lambda", "11,1", "--alpha", "1,1", "--method", "oracle"
    )
    assert code == EXIT_BUDGET


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
