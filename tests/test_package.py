"""The package surface and the modules each entry point loads, checked in
fresh interpreters (the test process itself has imported everything)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Modules that only verification, the oracles or the strong layer need.
HEAVY = ("permsep.oracles", "permsep.verification", "permsep.symfunc", "permsep.strong")
# Modules that only verification and the tests need.
VERIFY_ONLY = ("permsep.verification", "permsep.crosscheck", "permsep.symfunc")
# Only the involution, hz, gtable and verify subcommands load the binomial basis.
BINOMIAL_BASIS = "permsep.polynomials"
# Standard-library modules that no subcommand needs: ``dataclasses`` alone
# costs 7-10 ms of start-up because it pulls in ``inspect``, ``ast`` and
# ``dis``, and records are written without ``json``.
SLOW_STDLIB = ("dataclasses", "inspect", "json")
# Worker-pool packages: ``verify`` forks its workers with `os.fork` directly.
POOLS = ("concurrent.futures", "multiprocessing")


def run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_public_names_are_their_defining_objects():
    out = run_fresh(
        """
        import importlib, inspect, pkgutil, sys
        import permsep

        def check(stage):
            for name in permsep.__all__:
                obj = getattr(permsep, name)
                home = importlib.import_module(obj.__module__)
                assert getattr(home, name) is obj, (stage, name)
            assert inspect.isfunction(permsep.partitions), stage
            assert permsep.partitions is sys.modules["permsep.partitions"].partitions

        check("lazy")
        for info in pkgutil.iter_modules(permsep.__path__):
            if info.name != "__main__":
                importlib.import_module(f"permsep.{info.name}")
        check("after importing every submodule")

        namespace = {}
        exec("from permsep import *", namespace)
        assert all(namespace[name] is getattr(permsep, name) for name in permsep.__all__)
        assert set(permsep.__all__) <= set(dir(permsep))
        assert len(set(permsep.__all__)) == len(permsep.__all__)
        try:
            permsep.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
        print("ok")
        """
    )
    assert out == "ok\n"


def test_import_permsep_loads_only_errors_and_partitions():
    out = run_fresh(
        """
        import json, sys
        import permsep
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("permsep"))))
        """
    )
    assert json.loads(out) == ["permsep", "permsep.errors", "permsep.partitions"]


def loaded_by(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and the permsep, `SLOW_STDLIB` and `POOLS` modules loaded by
    one call, read before the harness itself imports ``json`` to print them."""
    out = run_fresh(
        f"""
        import io, sys
        from permsep.cli import main
        code = main({argv!r}, stdout=io.StringIO())
        names = [m for m in sys.modules if m.startswith("permsep") or m in {SLOW_STDLIB + POOLS!r}]
        import json
        print(json.dumps([code, sorted(names)]))
        """
    )
    code, modules = json.loads(out)
    return code, modules


@pytest.mark.parametrize(
    "argv",
    [
        ["sep-prob", "--lambda", "5,4,2", "--alpha", "2,1"],
        ["lift", "--lambda", "4,3,3", "--r", "2", "--alpha", "3,1,1"],
        ["ncycle", "--n", "9", "--alpha", "2,1"],
        ["pcycles", "--n", "7", "--p", "3", "--alpha", "2,2"],
        ["involution", "--N", "4", "--alpha", "2,1"],
        ["hz", "--N", "6"],
        ["gtable", "--n", "5", "--m", "2", "--k", "1"],
        ["table", "--n", "5", "--alphas", "2,1;1,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_formula_subcommands_never_load_the_heavy_layers(argv):
    code, modules = loaded_by(argv)
    assert code == 0
    assert not set(HEAVY + SLOW_STDLIB) & set(modules), modules
    loads_it = argv[0] in ("involution", "hz", "gtable")
    assert (BINOMIAL_BASIS in modules) == loads_it, modules
    single_result = argv[0] in ("sep-prob", "lift", "ncycle", "pcycles")
    assert ("permsep.subcommands" in modules) != single_result, modules


def test_oracle_and_verify_subcommands_load_what_they_run():
    code, modules = loaded_by(
        ["sep-prob", "--lambda", "3,2", "--alpha", "1,1", "--method", "both"]
    )
    assert code == 0
    assert "permsep.oracles" in modules
    unneeded = {"permsep.perms", "permsep.separation", BINOMIAL_BASIS, "permsep.strong",
                "permsep.subcommands", *VERIFY_ONLY}
    assert not (unneeded | set(SLOW_STDLIB)) & set(modules), modules
    code, modules = loaded_by(["verify", "--suite", "all", "--max-n", "4", "--threads", "2"])
    assert code == 0
    assert {"permsep.verification", "permsep.strong", "permsep.symfunc"} <= set(modules)
    assert not set(SLOW_STDLIB + POOLS) & set(modules), modules
    for argv in (
        ["strong", "--lambda", "4,3", "--m", "4"],
        ["connection", "--lambda", "4,3", "--alpha", "5,2"],
    ):
        code, modules = loaded_by(argv)
        assert code == 0
        assert "permsep.strong" in modules
        assert not {"permsep.oracles", BINOMIAL_BASIS, *VERIFY_ONLY} & set(modules), modules
        assert not set(SLOW_STDLIB) & set(modules), modules


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["sep-prob", "--lambda", "3,2", "--alpha", "1,1", "--method", "both"], 1170),
        (["sep-prob", "--lambda", "5,4,2", "--alpha", "2,1"], 929),
        (["strong", "--lambda", "4,3", "--m", "4"], 1337),
        (["hz", "--N", "6"], 1387),
    ],
    ids=["sep-prob-both", "sep-prob", "strong", "hz"],
)
def test_query_path_compiles_a_bounded_amount_of_source(argv, budget):
    # A cold query compiles every module it loads, unless bytecode is cached;
    # the sum of their lines bounds what the query path makes it compile.
    out = run_fresh(
        f"""
        import io, json, sys
        from permsep.cli import main
        code = main({argv!r}, stdout=io.StringIO())
        files = [m.__file__ for name, m in sys.modules.items() if name.startswith("permsep")]
        lines = 0
        for path in files:
            with open(path, encoding="utf-8") as source:
                lines += sum(1 for _ in source)
        print(json.dumps([code, lines]))
        """
    )
    code, lines = json.loads(out)
    assert code == 0
    assert lines <= budget, lines
