"""Package modules import one another at module level only.

A function-level import of a package module hides a dependency (and, in
`network`, once hid a network -> channel -> network cycle); this scan finds
any that come back.  Three more scans keep each module's `__all__` to its own
functions and classes, the span names the benchmark looks up to functions its
tracer wraps, and the package functions its workloads call to public ones.
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


def public_definitions(path: pathlib.Path) -> set[str]:
    """Names of the module-level functions and classes not starting with '_'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body
            if isinstance(node, kinds) and not node.name.startswith("_")}


# Modules without an `__all__`: the package root, the command surface `cli`,
# and `errors`, every name of which is public.
NO_ALL = {"__init__", "cli", "errors"}


def test_each_all_lists_exactly_its_own_functions_and_classes():
    for path in sorted(SRC.glob("*.py")):
        if path.stem in NO_ALL:
            continue
        module = importlib.import_module(f"thermoneuron.{path.stem}")
        listed = set(module.__all__)
        assert len(listed) == len(module.__all__), f"{path.name}: duplicate entries"
        assert all(hasattr(module, name) for name in listed), f"{path.name}: stale entries"
        # Constants may be listed too; a re-exported function or class may not.
        code = {name for name in listed
                if isinstance(getattr(module, name), type) or callable(getattr(module, name))}
        assert code == public_definitions(path), path.name


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
