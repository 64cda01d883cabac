"""Package modules import one another at module level only.

A function-level import of a package module hides a dependency (and, in
`network`, once hid a network -> channel -> network cycle); this scan finds
any that come back.
"""

import ast
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
