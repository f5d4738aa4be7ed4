"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import os
import sys
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import permsep.cli  # noqa: E402
from checks import connection_by_characters, weak_count_by_characters  # noqa: E402
from run import Pass, best_times, check_passes, smoothed_percentile  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, cli_args, make_pass  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_queries(workload):
    assert make_pass(workload, 7) == make_pass(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seed_different_queries(workload):
    assert make_pass(workload, 7) != make_pass(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_shape_does_not_depend_on_seed(workload):
    def shape(queries):
        return sorted((q["kind"], sum(q.get("lam", ())) + q.get("r", 0)) for q in queries)

    assert shape(make_pass(workload, 1)) == shape(make_pass(workload, 2))


def _cli_output(args: list[str]) -> str:
    out = io.StringIO()
    assert permsep.cli.main(args, stdout=out) == 0
    return out.getvalue()


def _one_query_pass(query: dict, stdout: str) -> Pass:
    one = Pass()
    one.queries = [{"id": query["id"], "seconds": 0.1, "stdout": stdout}]
    return one


def test_correct_answers_pass_the_checks():
    queries = [
        {"id": 0, "kind": "sep-prob", "lam": (5,), "alpha": (2, 1)},
        {"id": 1, "kind": "lift", "lam": (3, 2), "r": 2, "alpha": (2, 1)},
        {"id": 2, "kind": "connection", "lam": (3, 2, 1), "alpha": (4, 2)},
        {"id": 3, "kind": "strong", "lam": (4, 2), "m": 3},
        {"id": 4, "kind": "hz", "pairs": 4},
        {"id": 5, "kind": "sep-prob-both", "lam": (3, 3), "alpha": (1, 1)},
        {"id": 6, "kind": "pcycles", "n": 6, "p": 2, "alpha": (2, 1)},
        {"id": 7, "kind": "involution", "pairs": 3, "alpha": (2, 1)},
        {"id": 8, "kind": "ncycle", "n": 9, "alpha": (1, 1, 1)},
    ]
    passes = [_one_query_pass(q, _cli_output(cli_args(q))) for q in queries]
    attempted, failed, messages = check_passes(passes, queries)
    assert (attempted, failed) == (len(queries), 0), messages


@pytest.mark.parametrize(
    "query",
    [
        {"id": 0, "kind": "sep-prob", "lam": (4, 2), "alpha": (2, 1)},
        {"id": 0, "kind": "lift", "lam": (3, 2), "r": 1, "alpha": (1, 1)},
        {"id": 0, "kind": "connection", "lam": (3, 2, 1), "alpha": (4, 2)},
    ],
)
def test_injected_wrong_count_is_a_failure(query):
    good = _cli_output(cli_args(query))
    envelope = json.loads(good)
    envelope["records"][0]["count"] = str(int(envelope["records"][0]["count"]) + 1)
    bad = json.dumps(envelope)
    attempted, failed, messages = check_passes(
        [_one_query_pass(query, good), _one_query_pass(query, bad)], [query]
    )
    assert (attempted, failed) == (2, 1)
    assert len(messages) == 1


def test_wrong_batch_result_and_crash_are_failures():
    query = {"id": 3, "kind": "pcycles", "n": 7, "p": 3, "alpha": (2, 2)}
    first, second = Pass(), Pass()
    first.queries = [{"id": 3, "seconds": 0.0, "result": {"count": "1", "probability": "1/2"}}]
    second.queries = [{"id": 3, "seconds": 0.0, "error": "exit 3: budget exceeded"}]
    attempted, failed, _ = check_passes([first, second], [query])
    assert (attempted, failed) == (2, 2)


def test_character_references_match_the_oracles():
    from permsep import partitions
    from permsep.oracles import oracle_connection_coefficient, oracle_separated_pair_count

    for n in range(1, 6):
        for lam in partitions(n):
            for alpha in partitions(n):
                assert connection_by_characters(lam, alpha) == oracle_connection_coefficient(lam, alpha)
            for alpha in [(1,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
                if sum(alpha) <= n:
                    want = oracle_separated_pair_count(lam, alpha)
                    assert weak_count_by_characters(lam, alpha) == want


def _span(span_id, name, busy, parent=None, kind="call", objects=0, degree=None):
    return {
        "id": span_id, "name": name, "kind": kind, "start": 0.0, "end": busy,
        "busy": busy, "parent": parent, "workload": "w", "query": 0,
        "objects": objects, "degree": degree,
    }


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span(1, "cli.main", 10.0),
        _span(2, "formulas.separation_probability", 4.0, parent=1),
        _span(3, "perms.permutations_of_type", 3.0, parent=1, kind="iter", objects=5),
        _span(4, "symfunc.transition_matrices", 1.0, parent=2, degree=12),
        _span(5, "symfunc.power_sum_coefficient", 0.5, parent=2, degree=12),
        _span(6, "strong.refinement_matrix", 2.0),
        _span(7, "strong.refinement_matrix", 0.5, parent=6),
        _span(8, "verification.check_symmetry", 1.5),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.5, 3: 3.0, 4: 1.0, 5: 0.5, 6: 1.5, 7: 0.5, 8: 1.5}
    metrics = layer_metrics([spans, [_span(1, "symfunc.transition_matrices", 0.25, degree=10)]])
    assert metrics["cli.self_s"] == 3.0
    assert metrics["formulas.self_s"] == 2.5
    assert metrics["perms.self_s"] == 3.0
    assert metrics["perms.objects"] == 5
    assert metrics["perms.calls"] == 0
    assert metrics["symfunc.self_s"] == 1.75
    assert metrics["symfunc.calls"] == 3
    assert metrics["symfunc.builds"] == 2  # degree 12 in one process, 10 in the other
    assert metrics["strong.self_s"] == 2.0
    assert metrics["strong.refinement_s"] == 2.0  # the outermost call only
    assert metrics["verification.check_symmetry_s"] == 1.5
    assert metrics["oracles.self_s"] == 0.0


def test_tracer_rebinds_copied_names_and_skips_missing_layers(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .formulas import area\n")
    (pkg / "symfunc.py").write_text(
        textwrap.dedent(
            """
            def side(n):
                return n

            def paired(pairs):
                return side(2 * pairs)

            def squares(n):
                for i in range(n):
                    yield i * i
            """
        )
    )
    (pkg / "formulas.py").write_text(
        textwrap.dedent(
            """
            from .symfunc import paired, side, squares

            def area(n):
                return side(n) * side(n) + sum(squares(n))

            def double(pairs):
                return paired(pairs)

            TABLE = {"all": (area,)}
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = Tracer("test")
    tracer.install("fakepkg")
    import fakepkg
    import fakepkg.formulas

    tracer.query = 4
    assert fakepkg.area(3) == 9 + 5
    assert fakepkg.formulas.TABLE["all"][0](2) == 4 + 1
    assert fakepkg.formulas.double(3) == 6
    names = [span[1] for span in tracer.spans]
    assert names.count("formulas.area") == 2
    assert names.count("symfunc.side") == 5
    assert "symfunc.squares" in names

    out = tmp_path / "spans.jsonl"
    tracer.dump(str(out))
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == len(tracer.spans)
    assert {line["workload"] for line in lines} == {"test"}
    assert {line["query"] for line in lines} == {4}
    metrics = layer_metrics([lines])
    # Degrees 3, 2 and 6: ``side(6)`` counts, the ``pairs`` of ``paired(3)`` does not.
    assert metrics["symfunc.builds"] == 3
    assert {line["degree"] for line in lines if line["name"] == "symfunc.paired"} == {None}
    gen = next(line for line in lines if line["kind"] == "iter" and line["objects"] == 3)
    assert gen["name"] == "symfunc.squares"
    for name in ("fakepkg", "fakepkg.formulas", "fakepkg.symfunc"):
        sys.modules.pop(name, None)


def test_smoothed_percentile_averages_the_band_around_the_percentile():
    values = [float(v) for v in range(1, 101)]
    assert smoothed_percentile(values, 40, 60) == 50.5
    assert smoothed_percentile(values, 87.5, 92.5) == 91.0
    assert smoothed_percentile([7.0], 40, 60) == 7.0
    # One far outlier above the band does not move the estimate.
    assert smoothed_percentile(values[:-1] + [1e9], 40, 60) == 50.5


def test_best_times_take_each_query_at_its_fastest_success():
    first, second = Pass(), Pass()
    first.queries = [{"id": 0, "seconds": 0.5}, {"id": 1, "seconds": 0.2}, {"id": 2, "seconds": 9.0, "error": "x"}]
    second.queries = [{"id": 0, "seconds": 0.3}, {"id": 1, "seconds": 0.4}, {"id": 2, "seconds": 0.1, "error": "x"}]
    assert best_times([first, second]) == {0: 0.3, 1: 0.2}
