"""permsep benchmark: end-to-end timings, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 60 --trace 0

Run from any directory; the checkout is the parent of this file's
directory and ``permsep`` is always imported from its ``src/``.  The
benchmark is one closed-loop client: it starts one child process at a time
and waits for it.  A run repeats the workload's fixed query list (one
*pass*, generated from ``--seed``) until ``--seconds`` would be exceeded,
checks every answer after the timed region, prints a few human-readable
lines and then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  A shared machine's speed
can drift by 1.6x in stretches of seconds to minutes, so query timings are
taken at each query's fastest attempt over the run's passes and reported
in *reference units*: multiples of the 10th percentile, over the same
run, of the time of a fixed pure-Python computation timed just before
each query (``reference_seconds``).  A slower program reads higher; a
slower machine slows both and reads about the same.  The raw seconds are
printed above the result line.

``--trace 1`` alternates untraced and traced passes of the same list and
reports the per-layer metrics from the traced passes, plus
``trace.overhead_frac``, the traced pass time over the untraced one, minus
one.  See README.md in this directory for the workloads and the
metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import Checker, parse_cli  # noqa: E402
from tracing import LAYERS, VERIFY_CHECKS, layer_metrics, read_spans  # noqa: E402
from workloads import WORKLOADS, cli_args, make_pass, verify_args  # noqa: E402

# Timed runs make at least two passes, so that each query's fastest time
# rests on two samples or more; more would let a run on a slow machine
# overrun --seconds by a whole pass.  Per-layer metrics have no bound and
# one traced pass will do.
MIN_PASSES = 2
SETUP_SPAWNS = 48
# Reference samples and set-up spawns taken before a warm batch, which has
# no gaps between its queries to take them in.
BATCH_REFERENCES = 16
BATCH_SETUP_SPAWNS = 8
RUN_LIMIT_S = 170.0
SETUP_CODE = "import time, permsep; print(time.monotonic()); print(permsep.__file__)"

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "query_p50_ref": "ref",
    "query_p90_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in ("symfunc.calls", "formulas.calls", "strong.calls", "oracles.calls"):
        units[name] = "count"
    units["symfunc.builds"] = "count"
    units["strong.refinement_s"] = "s"
    units["perms.objects"] = "count"
    for check in VERIFY_CHECKS:
        units[f"verification.check_{check}_s"] = "s"
    units["verification.t2_speedup"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


class Budget:
    """Keeps the whole run inside RUN_LIMIT_S seconds."""

    def __init__(self):
        self.start = monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (monotonic() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def spawn(cmd: list[str], budget: Budget, stdin: str | None = None) -> tuple[dict, float]:
    """Run one child to completion; its outcome and wall time in seconds."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
            env=child_env(), timeout=max(1.0, budget.remaining()),
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "stdout": "", "stderr": "timed out"}, perf_counter() - start
    seconds = perf_counter() - start
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}, seconds


def measure_setup(budget: Budget, spawns: int) -> list[float]:
    """Seconds from spawn until ``import permsep`` returns, per spawn."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(spawns):
        start = monotonic()
        outcome, _ = spawn(cmd, budget)
        if outcome["rc"] != 0:
            raise RuntimeError(f"cannot import permsep: {outcome['stderr']}")
        stamp, path = outcome["stdout"].split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"permsep imported from {path}, not from {SRC}")
        samples.append(float(stamp) - start)
    return samples


def reference_seconds() -> float:
    """Seconds this process takes for a fixed computation of the kind
    permsep does: Fraction and big-integer arithmetic, tuples and dicts.
    It uses nothing from permsep, so its time follows the machine alone."""
    start = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 97 + 1, i)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i**5
    return perf_counter() - start


class Pass:
    """Outcome of one pass: wall time, per-query (seconds, result or failure),
    and the reference times and set-up times taken during the pass."""

    def __init__(self):
        self.wall = 0.0
        self.queries: list[dict] = []  # {"id", "seconds"} and "result", "stdout" or "error"
        self.refs: list[float] = []
        self.setup: list[float] = []
        self.span_files: list[str] = []


def cli_entry(query_id: int, outcome: dict, seconds: float) -> dict:
    entry = {"id": query_id, "seconds": seconds}
    if outcome["rc"] == 0:
        entry["stdout"] = outcome["stdout"]
    else:
        entry["error"] = f"exit {outcome['rc']}: {outcome['stderr'].strip()[-300:]}"
    return entry


def run_cli_pass(workload: str, queries: list[dict], budget: Budget, trace_dir: str | None) -> Pass:
    out = Pass()
    begin = perf_counter()
    for query in queries:
        # Samples spread evenly over the run meet its fast moments.
        out.refs.append(reference_seconds())
        out.setup += measure_setup(budget, 1)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "permsep"] + cli_args(query)
        else:
            span_file = os.path.join(trace_dir, f"q{query['id']}.jsonl")
            out.span_files.append(span_file)
            cmd = [
                sys.executable, os.path.join(HERE, "child.py"), "--trace", span_file,
                "--workload", workload, "--query", str(query["id"]), "cli", "--",
            ] + cli_args(query)
        outcome, seconds = spawn(cmd, budget)
        out.queries.append(cli_entry(query["id"], outcome, seconds))
        if outcome["rc"] is None:
            break
    out.wall = perf_counter() - begin
    return out


def run_batch_pass(workload: str, queries: list[dict], budget: Budget, trace_dir: str | None) -> Pass:
    out = Pass()
    out.refs = [reference_seconds() for _ in range(BATCH_REFERENCES)]
    out.setup = measure_setup(budget, BATCH_SETUP_SPAWNS)
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if trace_dir is not None:
        span_file = os.path.join(trace_dir, "batch.jsonl")
        out.span_files.append(span_file)
        cmd += ["--trace", span_file, "--workload", workload]
    outcome, seconds = spawn(cmd + ["batch"], budget, stdin=json.dumps(queries))
    if outcome["rc"] != 0:
        out.wall = seconds
        out.queries = [{"id": q["id"], "seconds": seconds, "error": outcome["stderr"][-300:]} for q in queries]
        return out
    report = json.loads(outcome["stdout"])
    out.wall = report["wall"]
    out.queries = report["results"]
    return out


def run_pass(workload: str, queries: list[dict], budget: Budget, trace_dir: str | None = None) -> Pass:
    if workload == "warm-batch":
        return run_batch_pass(workload, queries, budget, trace_dir)
    return run_cli_pass(workload, queries, budget, trace_dir)


def keep_going(done: int, least: int, elapsed: float, last: float, seconds: float, budget: Budget) -> bool:
    """Start another pass if fewer than ``least`` are done or if it should end
    within the measuring time."""
    return (done < least or elapsed + last <= seconds) and budget.remaining() > 2 * last


def check_passes(passes: list[Pass], queries: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every query of every pass.

    Each distinct answer is checked once; a query whose answer changes from
    one pass to the next fails in every pass that disagrees with the first.
    """
    by_id = {q["id"]: q for q in queries}
    checker = Checker(SRC)
    verdicts: dict[tuple[int, str], list[str]] = {}
    first_answer: dict[int, str] = {}
    attempted = failed = 0
    messages = []
    for one in passes:
        for entry in one.queries:
            attempted += 1
            query = by_id[entry["id"]]
            if "error" in entry:
                problems = [entry["error"]]
            else:
                if "stdout" in entry:
                    answer = entry["stdout"]
                else:
                    answer = json.dumps(entry["result"], sort_keys=True)
                key = (entry["id"], answer)
                if key not in verdicts:
                    if "stdout" in entry:
                        try:
                            result = parse_cli(query, answer)
                        except (ValueError, KeyError, StopIteration) as exc:
                            result = {"error": f"unparsable output: {exc}"}
                    else:
                        result = entry["result"]
                    verdicts[key] = checker.check(query, result)
                problems = list(verdicts[key])
                first = first_answer.setdefault(entry["id"], answer)
                if answer != first:
                    problems.append("answer differs between passes")
            if problems:
                failed += 1
                messages.append(f"query {entry['id']} {query['kind']}: {'; '.join(problems)}")
    return attempted, failed, messages


def smoothed_percentile(values: list[float], low: float, high: float) -> float:
    """Mean of the values between the ``low``-th and ``high``-th percentiles.

    Per-process times on a shared machine are noisy enough that a single
    order statistic jumps between neighbouring samples from run to run; the
    mean of a narrow band around the percentile moves much less.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=200)
    lo, hi = cuts[round(2 * low) - 1], cuts[round(2 * high) - 1]
    band = [v for v in values if lo <= v <= hi]
    return statistics.fmean(band) if band else statistics.median(values)


def best_times(passes: list[Pass]) -> dict[int, float]:
    """Each query's fastest time in seconds over the passes; failed attempts
    do not count, and a query that failed in every pass has no entry."""
    best: dict[int, float] = {}
    for one in passes:
        for entry in one.queries:
            if "error" not in entry:
                best[entry["id"]] = min(entry["seconds"], best.get(entry["id"], float("inf")))
    return best


def timed_run(workload: str, queries: list[dict], seconds: float, budget: Budget) -> tuple[list[Pass], dict, dict]:
    spawn([sys.executable, "-c", SETUP_CODE], budget)  # writes the bytecode cache, untimed
    passes: list[Pass] = []
    begin = perf_counter()
    while True:
        passes.append(run_pass(workload, queries, budget))
        if not keep_going(len(passes), MIN_PASSES, perf_counter() - begin, passes[-1].wall, seconds, budget):
            break
    setup = [t for p in passes for t in p.setup]
    setup += measure_setup(budget, max(0, SETUP_SPAWNS - len(setup)))
    # A computation cannot run faster than its work allows, but any attempt
    # can be slowed by the machine; so each query and each set-up spawn
    # count at their fastest attempt.  Slow stretches of the machine can
    # outlast a run; dividing by the reference cancels most of them.  The
    # reference is short and sampled often, so its fastest sample catches
    # brief fast moments that no query lasts through; its 10th percentile
    # matches the queries' fastest attempts better (README.md, Noise).
    best = list(best_times(passes).values()) or [0.0]
    ref = statistics.quantiles([r for p in passes for r in p.refs], n=10)[0]
    raw = {
        "wall_s": sum(best),
        "query_p50_ms": smoothed_percentile(best, 40, 60) * 1e3,
        "query_p90_ms": smoothed_percentile(best, 85, 95) * 1e3,
        "reference_ms": ref * 1e3,
    }
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "wall_ref": raw["wall_s"] / ref,
        "query_p50_ref": raw["query_p50_ms"] / 1e3 / ref,
        "query_p90_ref": raw["query_p90_ms"] / 1e3 / ref,
        "setup_s": min(setup),
        "peak_rss_mb": rss_mb,
    }
    print("  raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    attempts = sum(len(p.queries) for p in passes)
    samples = {
        "wall_ref": attempts, "query_p50_ref": attempts, "query_p90_ref": attempts,
        "setup_s": len(setup), "peak_rss_mb": attempts + len(setup),
    }
    return passes, metrics, samples


def traced_run(workload: str, queries: list[dict], seconds: float, budget: Budget, tmp: str) -> tuple[list[Pass], dict, dict]:
    """Alternate untraced and traced passes of the same list; on
    ``oracle-verify`` also time ``verify`` at one thread for the speedup."""
    plain, traced, single = [], [], []
    layer_runs = []
    verify_cmd = [sys.executable, "-m", "permsep"] + verify_args(threads=1)
    verify_id = next((q["id"] for q in queries if q["kind"] == "verify"), None)
    begin = perf_counter()
    while True:
        start = perf_counter()
        plain.append(run_pass(workload, queries, budget))
        trace_dir = os.path.join(tmp, f"pass{len(traced)}")
        os.mkdir(trace_dir)
        traced.append(run_pass(workload, queries, budget, trace_dir))
        spans = [read_spans(f) for f in traced[-1].span_files if os.path.exists(f)]
        layer_runs.append(layer_metrics(spans))
        if verify_id is not None:
            single.append(Pass())
            single[-1].queries = [cli_entry(verify_id, *spawn(verify_cmd, budget))]
        if not keep_going(len(traced), 1, perf_counter() - begin, perf_counter() - start, seconds, budget):
            break
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    t1, t2 = best_times(single).get(verify_id), best_times(plain).get(verify_id)
    metrics["verification.t2_speedup"] = t1 / t2 if t1 and t2 else 0.0
    walls = sum(best_times(traced).values()), sum(best_times(plain).values())
    metrics["trace.overhead_frac"] = walls[0] / walls[1] - 1.0 if walls[1] else 0.0
    units = per_layer_units()
    metrics = {name: metrics.get(name, 0.0) for name in units}
    samples = {name: len(layer_runs) for name in units}
    return plain + traced + single, metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # On SIGTERM, unwind normally: subprocess.run kills and reaps the running
    # child and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "permsep", "__init__.py")):
        print(f"perfbench: no permsep package under {SRC}", file=sys.stderr)
        return 2
    budget = Budget()
    queries = make_pass(opts.workload, opts.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if opts.trace:
            passes, metrics, samples = traced_run(opts.workload, queries, opts.seconds, budget, tmp)
            units = per_layer_units()
        else:
            passes, metrics, samples = timed_run(opts.workload, queries, opts.seconds, budget)
            units = END_TO_END_UNITS
    attempted, failed, messages = check_passes(passes, queries)

    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    print(
        f"workload {opts.workload} seed {opts.seed} trace {opts.trace}: "
        f"{len(queries)} queries per pass, "
        f"{failed} of {attempted} attempted failed (fail_frac {failed / attempted:.4f})"
    )
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]:6s} (n={samples[name]})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
