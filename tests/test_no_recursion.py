"""No library function calls itself by name: inputs of legal size (deep
trees, long 2d-tree orderings) must never reach the interpreter's recursion
limit, and the CLI has no RecursionError handler to fall back on."""

import ast
from pathlib import Path

import treelasso

#: Recursion allowed because its depth is bounded by a constant:
#: _topologies.expand nests once per taxon, at most MAX_ORACLE_TAXA deep.
ALLOWED = {("lasso.py", "_topologies.expand")}


def _self_calls(tree):
    """(qualified name, line) of each function whose body calls it by name,
    as f(...) or self.f(...)."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if (isinstance(func, ast.Name) and func.id == child.name) or (
                        isinstance(func, ast.Attribute)
                        and func.attr == child.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        found.append((name, call.lineno))
                        break
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_no_function_calls_itself():
    package = Path(treelasso.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 8
    recursive = {
        (path.name, name, line)
        for path in modules
        for name, line in _self_calls(ast.parse(path.read_text(), filename=str(path)))
    }
    assert {(module, name) for module, name, _ in recursive} == ALLOWED, sorted(recursive)


def test_detector_sees_direct_and_method_recursion():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def g(self):\n        return self.g()\n"
        "def outer():\n    def inner():\n        inner()\n    return inner\n"
        "def h():\n    return f(1)\n"
    )
    assert [name for name, _ in _self_calls(ast.parse(source))] == ["f", "C.g", "outer.inner"]
