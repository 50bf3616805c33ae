"""The package's declared dependencies cover what its modules import, its import
loads neither ``dataclasses`` nor ``orjson``, orjson loads only where a float
table is written, every warning goes through ``redzone.errors.warn``, only the
engine reads how the spare is consumed, each rate kernel checks its argument
through one guard, the red zone's failure window is stated once, the engine
reads the policy in one line, and the scalar oracle in ``tests/oracle.py``
stays apart from the engine it checks."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted((ROOT / "src" / "redzone").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Dotted names of the absolute imports anywhere in a module: each module
    imported, and for ``from m import x`` both ``m`` and ``m.x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def imported_top_level(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    return {name.partition(".")[0] for name in imported_modules(path)}


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set().union(*map(imported_top_level, SRC_MODULES))
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # each module is distributed under its own name
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert {"numpy", "orjson"} <= third_party  # imports inside functions count too
    assert third_party <= declared


def test_oracle_imports_no_engine_module():
    imported = imported_modules(ROOT / "tests" / "oracle.py")
    assert "redzone" in imported  # the walk sees the oracle's imports
    assert not {m for m in imported
                if ".".join(m.split(".")[:2]) in ("redzone.montecarlo", "redzone.maintenance")}


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_package_imports_nothing_from_tests(path):
    test_modules = {"tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    assert not imported_top_level(path) & test_modules


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.name)
def test_only_errors_warn_sets_where_a_warning_points(path):
    # errors.warn finds the caller's frame; a stack level counted anywhere else
    # breaks as soon as another of the package's frames lies between
    calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    warns = sum(ast.unparse(call.func) == "warnings.warn" for call in calls)
    stacklevels = sum(any(k.arg == "stacklevel" for k in call.keywords) for call in calls)
    assert "warnings.warn" not in imported_modules(path)
    assert (warns, stacklevels) == ((1, 1) if path.name == "errors.py" else (0, 0))


def test_only_the_engine_reads_the_spare_s_consumption():
    # the lab credit and the shelf aging factor fix when the spare dies; outside the
    # config's own checks only run_batch's module reads them, so no second statement
    # of the spare's install age or death time comes back
    readers = set()
    for path in SRC_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checks = {node for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "SystemConfig"
                  for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                  for node in ast.walk(fn)}
        readers.update(path.name for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node not in checks
                       and node.attr in ("lab_burnin", "shelf_aging_factor"))
    assert readers == {"montecarlo.py"}


def test_each_kernel_checks_its_domain_through_one_guard():
    # a time is finite and >= 0, a uniform inside (0, 1): each rule lives in its guard
    # alone, which every kernel of its argument calls once, under the kernel's own name
    tree = ast.parse((ROOT / "src" / "redzone" / "hazards.py").read_text(encoding="utf-8"))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    assert "np.isfinite" not in {ast.unparse(node) for node in ast.walk(tree)}
    raises = {fn.name: [ast.unparse(node.exc) for node in ast.walk(fn)
                        if isinstance(node, ast.Raise) and "DomainError" in ast.unparse(node)]
              for fn in functions}
    assert {name: len(r) for name, r in raises.items() if r} == {
        "_checked_time": 1, "_checked_uniform": 1, "weibull_hazard": 1}
    assert "shape < 1" in raises["weibull_hazard"][0]  # the burn-in origin: that kernel's rule
    guarded = {fn.name: [(ast.unparse(call.func), ast.literal_eval(call.args[1]))
                         for call in ast.walk(fn) if isinstance(call, ast.Call)
                         and ast.unparse(call.func) in ("_checked_time", "_checked_uniform")]
               for fn in functions}
    time_kernels = ("weibull_hazard", "weibull_cumulative", "bathtub_hazard",
                    "bathtub_cumulative", "software_hazard", "software_cumulative")
    assert {name: calls for name, calls in guarded.items() if calls} == {
        **{k: [("_checked_time", k)] for k in time_kernels},
        **{k: [("_checked_uniform", k)] for k in ("standard_normal_quantile", "lognormal_sample")}}


def attribute_readers(tree: ast.AST, attr: str) -> set[str]:
    """The functions of a module that read an attribute named ``attr``, each read
    credited to the innermost function around it (``<module>`` outside any)."""
    readers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        elif isinstance(node, ast.Attribute) and node.attr == attr:
            readers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return readers


def test_the_failure_window_is_stated_once():
    # detection and severity read one peak from one window; no second reader of it,
    # with its own rule for a window between grid points or its own end, comes back:
    # T2, the window's end, is read in one function of the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC_MODULES}
    readers = {(name, func) for name, tree in trees.items()
               for func in attribute_readers(tree, "t2")}
    assert readers == {("analysis.py", "_failure_window")}
    assert "peak_ratio" not in {node.name for tree in trees.values() for node in ast.walk(tree)
                                if isinstance(node, ast.FunctionDef)}


def test_the_engine_reads_the_policy_in_one_line():
    # replace on failure runs as rotation at an infinite period: run_batch maps the
    # policy to its period in one assignment, and no other line of the engine's module
    # reads a kind or a rotation period, so no second path for either policy comes back
    tree = ast.parse((ROOT / "src" / "redzone" / "montecarlo.py").read_text(encoding="utf-8"))
    reads = {node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("kind", "rotation_period")}
    (mapping,) = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and [ast.unparse(target) for target in node.targets] == ["period"]]
    assert reads == {node for node in ast.walk(mapping) if node in reads}
    assert sorted(map(ast.unparse, reads)) == ["policy.kind", "policy.rotation_period"]
    assert attribute_readers(tree, "kind") == {"run_batch"}


def test_cli_import_builds_no_dataclass_and_loads_no_orjson():
    # start-up: the value types generate no code, and orjson waits for a float table
    code = "import sys, redzone.cli; print(*sorted({'dataclasses', 'orjson'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_orjson_loads_only_with_a_float_table(tmp_path):
    # a JSON-only command stays free of orjson's import time, as the import does
    code = (
        "import sys\n"
        "import redzone.cli\n"
        "assert redzone.cli.main(['compare', '--config', sys.argv[1], '--out', sys.argv[2],\n"
        "                         '--replications', '20']) == 0\n"
        "assert 'orjson' not in sys.modules, 'compare'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "demos" / "config_example.json"),
                           str(tmp_path / "compare.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "compare.json").exists()
