"""Every private name in ``src/`` is used by ``src/`` itself.

A ``_``-prefixed module-level function, method or constant is internal to
the package, so a test reading it is not a reason to keep it: one that no
code in ``src/`` reads is dead weight kept alive for tests only, such as a
rule table whose checker is gone. The check parses ``src/`` with the AST
and looks for each such name loaded as a name or attribute anywhere; an
assignment to it does not count. Dunder names are read by Python itself
and are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_functions(modules):
    """``{name: [defining file]}`` of private module-level functions and
    constants, and methods of module-level classes."""
    found = {}
    for path, module in modules.items():
        defs = list(module.body)
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                defs.extend(node.body)
        names = [node.name for node in defs
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in module.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.extend(target.id for target in targets
                             if isinstance(target, ast.Name))
        for name in filter(_private, names):
            found.setdefault(name, []).append(path.name)
    return found


def _referenced(modules):
    """Every name loaded as a bare name or as an attribute."""
    names = set()
    for module in modules.values():
        for node in ast.walk(module):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
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
    # the check sees a private function or constant that only its
    # definition names; a constant's own assignment is no use of it
    module = ast.parse("def _dead():\n    pass\n\n"
                       "_TABLE = {int: 'an integer'}\n"
                       "_RULE: str = 'kept'\n\n"
                       "class A:\n    def _kept(self):\n        pass\n\n"
                       "    def run(self):\n        return self._kept()\n\n"
                       "    def rule(self):\n        return _RULE\n")
    modules = {Path("m.py"): module}
    private = _private_functions(modules)
    assert sorted(private) == ["_RULE", "_TABLE", "_dead", "_kept"]
    assert sorted(n for n in private if n not in _referenced(modules)) == [
        "_TABLE", "_dead"]
