"""Every private function in ``src/`` is used by ``src/`` itself.

A ``_``-prefixed module-level function or method is internal to the
package, so a test calling it is not a reason to keep it: one that no code
in ``src/`` references is dead weight kept alive for tests only. The check
parses ``src/`` with the AST and looks for each such name as a loaded name
or attribute anywhere outside its own definition. Dunder methods are
called by Python itself and are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _private_functions(modules):
    """``{name: [defining file]}`` of private module-level functions and
    methods of module-level classes."""
    found = {}
    for path, module in modules.items():
        defs = list(module.body)
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                defs.extend(node.body)
        for node in defs:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                found.setdefault(node.name, []).append(path.name)
    return found


def _referenced(modules):
    """Every name loaded as a bare name or as an attribute."""
    names = set()
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_private_function_is_referenced_in_src():
    modules = _modules()
    private = _private_functions(modules)
    assert private
    unused = sorted(f"{name} ({', '.join(files)})"
                    for name, files in private.items()
                    if name not in _referenced(modules))
    assert unused == []


def test_check_finds_an_unreferenced_function():
    # the check sees a private function that only its definition names
    module = ast.parse("def _dead():\n    pass\n\n"
                       "class A:\n    def _kept(self):\n        pass\n\n"
                       "    def run(self):\n        return self._kept()\n")
    modules = {Path("m.py"): module}
    private = _private_functions(modules)
    assert sorted(private) == ["_dead", "_kept"]
    assert [n for n in private if n not in _referenced(modules)] == ["_dead"]
