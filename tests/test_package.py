"""The package surface and the modules each entry point loads, checked in
fresh interpreters (the test process itself has imported everything)."""

import ast
import glob
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Modules that only verification, the oracles or the strong layer need.
HEAVY = ("permsep.oracles", "permsep.verification", "permsep.symfunc", "permsep.strong")
# Modules that only verification and the tests need.
VERIFY_ONLY = ("permsep.verification", "permsep.crosscheck", "permsep.symfunc")
# Only the hz, gtable and verify subcommands load the binomial basis.
BINOMIAL_BASIS = "permsep.polynomials"
# The handler module of each subcommand outside `permsep.cli`, which no other
# subcommand loads.
HANDLER_MODULE = {
    "pcycles": "permsep.cli_variants",
    "lift": "permsep.cli_variants",
    "involution": "permsep.cli_involution",
    "strong": "permsep.cli_strong",
    "connection": "permsep.cli_strong",
    "hz": "permsep.cli_polynomials",
    "gtable": "permsep.cli_polynomials",
    "table": "permsep.cli_table",
    "verify": "permsep.cli_verify",
}
# The formula variants, which only their own subcommands and verify load.
VARIANTS = "permsep.variants"
# Standard-library modules that no well-formed call needs: ``dataclasses``
# alone costs 7-10 ms of start-up because it pulls in ``inspect``, ``ast`` and
# ``dis``, records are written without ``json``, and ``argparse``, with the
# ``gettext`` and ``locale`` its messages load, only prints help and errors.
SLOW_STDLIB = ("dataclasses", "inspect", "json", "argparse", "gettext", "locale")
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
        for info in pkgutil.iter_modules(permsep.__path__):  # __main__ too, which runs nothing
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


def test_installed_script_runs_what_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), "rb") as source:
        target = tomllib.load(source)["project"]["scripts"]["permsep"]
    with open(os.path.join(SRC, "permsep", "__main__.py"), encoding="utf-8") as source:
        module = ast.parse(source.read())
    # the module's last statement is ``if __name__ == "__main__": <entry>()``
    guard = module.body[-1]
    assert isinstance(guard, ast.If) and ast.unparse(guard.test) == "__name__ == '__main__'"
    (call,) = guard.body
    assert ast.unparse(call) == f"{target.split(':')[1]}()"
    assert target.split(":")[0] == "permsep.__main__"


def _names_used(tree: ast.AST) -> set[str]:
    """Names a subtree refers to: as a name, an attribute, an imported name or
    a whole string constant (``cli._SUBCOMMANDS`` names its declarations so)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_src_function_has_a_src_caller():
    # A module-level function or class that nothing in the package names,
    # outside its own definition, is dead code or a test-only helper.  The
    # public names, dunders and the test-only ``*_literal`` oracles are exempt.
    import permsep

    statements = []
    for path in sorted(glob.glob(os.path.join(SRC, "permsep", "*.py"))):
        with open(path, encoding="utf-8") as source:
            module = ast.parse(source.read(), path)
        statements += [(os.path.basename(path), node) for node in module.body]
    assert statements
    used = [_names_used(node) for _, node in statements]
    orphans = [
        f"{module}:{node.name}"
        for k, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in permsep.__all__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not node.name.endswith("_literal")
        and not any(node.name in names for j, names in enumerate(used) if j != k)
    ]
    assert orphans == []


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
    loads_it = argv[0] in ("hz", "gtable")
    assert (BINOMIAL_BASIS in modules) == loads_it, modules


# One call per subcommand, each in the fresh interpreter of `loaded_by`.
SUBCOMMAND_CALLS = [
    ["sep-prob", "--lambda", "4,4", "--alpha", "1,1", "--method", "both"],
    ["ncycle", "--n", "9", "--alpha", "2,1"],
    ["pcycles", "--n", "7", "--p", "3", "--alpha", "2,2"],
    ["lift", "--lambda", "4,3,3", "--r", "2", "--alpha", "3,1,1"],
    ["involution", "--N", "4", "--alpha", "2,1"],
    ["strong", "--lambda", "4,3", "--m", "4"],
    ["connection", "--lambda", "4,3", "--alpha", "5,2"],
    ["hz", "--N", "6"],
    ["gtable", "--n", "5", "--m", "2", "--k", "1"],
    ["table", "--n", "5", "--alphas", "2,1;1,1", "--method", "both"],
    ["verify", "--suite", "all", "--max-n", "4"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_CALLS, ids=lambda argv: argv[0])
def test_each_subcommand_loads_only_its_own_handler_module(argv):
    code, modules = loaded_by(argv)
    assert code == 0
    handlers = {name for name in modules if name.startswith("permsep.cli_")}
    own = {HANDLER_MODULE[argv[0]]} if argv[0] in HANDLER_MODULE else set()
    assert handlers == own, modules
    # hz and gtable evaluate no formulas, and only the subcommands that
    # print a variant load its code: sep-prob and ncycle compile none of it
    assert ("permsep.formulas" in modules) != (argv[0] in ("hz", "gtable")), modules
    assert (VARIANTS in modules) == (argv[0] in ("pcycles", "lift", "involution", "verify")), modules


def test_involution_loads_exactly_what_table_loads():
    # beside its handler module and the variants; the printed form is the
    # count-based probability over (2N - m)!, so the query needs no second
    # derivation and no binomial basis
    code, involution = loaded_by(["involution", "--N", "4", "--alpha", "2,1"])
    assert code == 0
    code, table = loaded_by(["table", "--n", "5", "--alphas", "2,1;1,1"])
    assert code == 0
    own = {"permsep.cli_involution", VARIANTS}
    assert set(involution) - own == set(table) - {"permsep.cli_table"}
    assert involution == ["permsep", "permsep.cli", "permsep.cli_involution", "permsep.errors",
                          "permsep.formulas", "permsep.partitions", VARIANTS]


def test_oracle_and_verify_subcommands_load_what_they_run():
    code, modules = loaded_by(
        ["sep-prob", "--lambda", "3,2", "--alpha", "1,1", "--method", "both"]
    )
    assert code == 0
    assert "permsep.oracles" in modules
    unneeded = {BINOMIAL_BASIS, "permsep.strong", VARIANTS, *HANDLER_MODULE.values(), *VERIFY_ONLY}
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


def test_help_still_runs_argparse_in_a_fresh_interpreter():
    out = run_fresh(
        """
        import contextlib, io, sys
        from permsep.cli import main
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["--help"])
        print(code, "argparse" in sys.modules, text.getvalue().startswith("usage: permsep "))
        """
    )
    assert out == "0 True True\n"


def nodes_loaded(argv: list[str]) -> tuple[int, int]:
    """Exit code and the summed AST node count of the permsep modules one
    call loads: compile time follows the code, not its comments and
    docstrings, and each docstring is one node however long."""
    out = run_fresh(
        f"""
        import io, sys
        from permsep.cli import main
        code = main({argv!r}, stdout=io.StringIO())
        files = [m.__file__ for name, m in sys.modules.items() if name.startswith("permsep")]
        import ast, json
        nodes = 0
        for path in files:
            with open(path, encoding="utf-8") as source:
                nodes += sum(1 for _ in ast.walk(ast.parse(source.read())))
        print(json.dumps([code, nodes]))
        """
    )
    code, nodes = json.loads(out)
    return code, nodes


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["sep-prob", "--lambda", "3,2", "--alpha", "1,1", "--method", "both"], 5421),
        (["sep-prob", "--lambda", "4,4", "--alpha", "1,1", "--method", "both"], 6008),
        (["sep-prob", "--lambda", "5,4,2", "--alpha", "2,1"], 3836),
        (["strong", "--lambda", "4,3", "--m", "4"], 4598),
        (["hz", "--N", "6"], 4079),
        (["involution", "--N", "4", "--alpha", "2,1"], 4571),
        (["connection", "--lambda", "4,3", "--alpha", "5,2"], 4598),
        (["ncycle", "--n", "9", "--alpha", "2,1"], 3836),
        (["pcycles", "--n", "7", "--p", "3", "--alpha", "2,2"], 4605),
        (["lift", "--lambda", "4,3,3", "--r", "2", "--alpha", "3,1,1"], 4605),
        (["gtable", "--n", "5", "--m", "2", "--k", "1"], 4079),
        (["table", "--n", "5", "--alphas", "2,1;1,1"], 4346),
        (["verify", "--suite", "all", "--max-n", "4"], 17838),
    ],
    ids=["sep-prob-both", "sep-prob-both-one-part", "sep-prob", "strong", "hz", "involution",
         "connection", "ncycle", "pcycles", "lift", "gtable", "table", "verify"],
)
def test_query_path_compiles_a_bounded_amount_of_source(argv, budget):
    # A cold query compiles every module it loads, unless bytecode is cached;
    # the AST nodes of those modules bound what the query path compiles.
    code, nodes = nodes_loaded(argv)
    assert code == 0
    assert nodes <= budget, nodes


README = os.path.join(os.path.dirname(SRC), "README.md")
LOAD_TABLE_HEADER = "| subcommand | modules loaded | permsep AST nodes loaded |\n| --- | --- | --- |\n"
# One call per row of the README's load table, keyed by the row's first cell;
# the `table` row gives two counts, without and with the oracles.
LOAD_TABLE_CALLS = {
    "`sep-prob`, `ncycle`": [["sep-prob", "--lambda", "5,4,2", "--alpha", "2,1"]],
    "`sep-prob --method oracle` or `both`": [
        ["sep-prob", "--lambda", "3,2", "--alpha", "1,1", "--method", "oracle"],
        ["sep-prob", "--lambda", "4,4", "--alpha", "1,1", "--method", "oracle"],
    ],
    "`pcycles`, `lift`": [["lift", "--lambda", "4,3", "--r", "1", "--alpha", "2,1"]],
    "`involution`": [["involution", "--N", "4", "--alpha", "2,1"]],
    "`table`": [
        ["table", "--n", "5", "--alphas", "2,1;1,1"],
        ["table", "--n", "5", "--alphas", "2,1;1,1", "--method", "both"],
    ],
    "`strong`, `connection`": [["connection", "--lambda", "4,3", "--alpha", "5,2"]],
    "`hz`, `gtable`": [["gtable", "--n", "5", "--m", "2", "--k", "1"]],
    "`verify`": [["verify", "--suite", "all", "--max-n", "4"]],
}


def _readme_text() -> str:
    with open(README, encoding="utf-8") as source:
        return source.read()


def _readme_load_table() -> dict[str, list[int]]:
    """{first cell: the node counts in the last cell} for each load-table row."""
    text = _readme_text()
    start = text.index(LOAD_TABLE_HEADER) + len(LOAD_TABLE_HEADER)
    table = {}
    for row in text[start:text.index("\n\n", start)].splitlines():
        first, _, counts = (cell.strip() for cell in row.strip("|").split("|"))
        numbers = re.findall(r"\d[\d,]*", counts)
        table[first] = [int(number.replace(",", "")) for number in numbers]
    return table


def test_readme_load_table_names_one_call_per_row():
    assert sorted(_readme_load_table()) == sorted(LOAD_TABLE_CALLS)


@pytest.mark.parametrize("row", list(LOAD_TABLE_CALLS), ids=lambda row: row.split("`")[1])
def test_readme_load_table_matches_the_lines_each_call_loads(row):
    measured = []
    for argv in LOAD_TABLE_CALLS[row]:
        code, nodes = nodes_loaded(argv)
        assert code == 0, argv
        measured.append(nodes)
    assert _readme_load_table()[row] == measured


def test_readme_gives_the_length_of_the_usage_module():
    (stated,) = re.findall(r"`permsep\.usage` \((\d+) lines\)", _readme_text())
    with open(os.path.join(SRC, "permsep", "usage.py"), encoding="utf-8") as source:
        assert int(stated) == sum(1 for _ in source)
