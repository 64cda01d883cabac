"""Package modules import one another at module level only.

A function-level import of a package module hides a dependency (and, in
`network`, once hid a network -> channel -> network cycle); this scan finds
any that come back.  A name is public when it has no leading underscore and
its own module defines it; three more scans hold the package root's re-exports,
the span names the benchmark looks up and the package functions its workloads
call to that rule.
"""

import ast
import importlib
import inspect
import pathlib

import thermoneuron

SRC = pathlib.Path(thermoneuron.__file__).parent


def _imports_package(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "thermoneuron"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "thermoneuron" for alias in node.names)
    return False


def function_level_package_imports(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return {f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree) if isinstance(fn, functions)
            for node in ast.walk(fn) if _imports_package(node)}


def test_scan_finds_a_function_level_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\n\ndef f():\n    from .channel import decode\n"
                    "    import scipy\n    return decode\n")
    assert function_level_package_imports(path) == {"mod.py:4"}


def test_no_module_imports_a_package_module_inside_a_function():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = set().union(*map(function_level_package_imports, modules))
    assert found == set()


def root_reexports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name a `from .module import ...` binds."""
    return {(node.module, alias.name) for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def top_level_assignments(path: pathlib.Path) -> set[str]:
    """The names a module binds by `name = ...` or `a, b = ...` at top level."""
    return {elt.id for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) for target in node.targets
            for elt in (target.elts if isinstance(target, ast.Tuple) else [target])
            if isinstance(elt, ast.Name)}


def test_scan_finds_the_root_reexports():
    source = "from .a import (f, G)\nfrom .b import h\nfrom os import path\n"
    assert root_reexports(source) == {("a", "f"), ("a", "G"), ("b", "h")}


def test_package_root_reexports_only_what_each_module_defines():
    reexports = root_reexports((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert {("network", "eval_layers"), ("serialize", "TOOL_VERSION")} <= reexports
    for layer, name in sorted(reexports):
        module = importlib.import_module(f"thermoneuron.{layer}")
        value = getattr(module, name)
        assert not name.startswith("_"), f"{layer}.{name}"
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, f"{layer}.{name}"
        else:
            assert name in top_level_assignments(SRC / f"{layer}.py"), f"{layer}.{name}"


PERFBENCH_RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
PERFBENCH_WORKLOADS = PERFBENCH_RUN.with_name("workloads.py")


def traced_names(source: str) -> set[str]:
    """The literal span names passed to `tracer.children` and `top_span`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if called in ("children", "top_span"):
                found |= {arg.value for arg in node.args
                          if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return found


def test_scan_finds_the_traced_names():
    source = ('idx = top_span(f"op-{x}", "a.f")\n'
              'sub = tracer.children(idx, "b.g") if idx else []\n'
              'other("c.h")\n')
    assert traced_names(source) == {"a.f", "b.g"}


def assert_own_public_function(name: str) -> None:
    """`name` is "layer.fn", a public function that module `layer` defines."""
    layer, _, fn = name.partition(".")
    assert (SRC / f"{layer}.py").is_file(), name
    module = importlib.import_module(f"thermoneuron.{layer}")
    value = getattr(module, fn, None)
    assert not fn.startswith("_") and inspect.isfunction(value), name
    assert value.__module__ == module.__name__, name


def test_perfbench_looks_up_only_wrapped_functions():
    # The tracer wraps each public function a layer module defines itself and
    # raises ValueError when asked for any other name.
    names = traced_names(PERFBENCH_RUN.read_text(encoding="utf-8"))
    assert names
    for name in sorted(names):
        assert_own_public_function(name)


def package_attribute_reads(source: str) -> set[str]:
    """"layer.name" for each attribute read on a package module that the source
    binds by `from thermoneuron import layer`."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "thermoneuron"
               for alias in node.names}
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_scan_finds_the_package_attribute_reads():
    source = ("def f():\n    from thermoneuron import dynamics, quantum as q\n"
              "    import numpy as np\n    return q.steady_state(dynamics.x.y, np.z)\n")
    assert package_attribute_reads(source) == {"quantum.steady_state", "dynamics.x"}


def test_perfbench_calls_only_public_package_functions():
    # The workloads build their operations from these names; deleting or
    # renaming one breaks the benchmark, which no other tier-1 test runs.
    reads = package_attribute_reads(PERFBENCH_WORKLOADS.read_text(encoding="utf-8"))
    assert {"designer.preset", "quantum.gibbs_register", "quantum.steady_state"} <= reads
    for name in sorted(reads):
        assert_own_public_function(name)
