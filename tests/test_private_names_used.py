"""Every private name in ``src/`` is used by ``src/`` itself, and every
public one by a program.

A ``_``-prefixed module-level function, method or constant is internal to
the package, so a test reading it is not a reason to keep it: one that no
code in ``src/`` reads is dead weight kept alive for tests only, such as a
rule table whose checker is gone. The check parses ``src/`` with the AST
and looks for each such name loaded as a name or attribute anywhere; an
assignment to it does not count. Dunder names are read by Python itself
and are left out.

A public module-level function or class, or a public method, is API; one
that neither ``src/``, the demos nor the benchmark's scripts load is API
only tests call, and must be named in ``TEST_ONLY`` with the reason it
stays. An import is no load.

The leading underscore is the one place that says what is public: no
module keeps an ``__all__``, and the package binds only ``__version__``,
so names are imported from the modules that define them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# public names that no program loads, each with the reason it is kept
TEST_ONLY = {
    "fit_continuous": "the continuous-outcome BART fit, which the study "
                      "does not run; tests fit it against closed forms "
                      "(criterion 7's conjugate leaf) and pin its chain",
}


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in paths}


def _modules():
    return _parse(sorted(SRC.rglob("*.py")))


def _programs():
    """``src/``, the demos and the benchmark's scripts, parsed."""
    return _parse(sorted(SRC.rglob("*.py")) + sorted(ROOT.glob("demos/*.py"))
                  + sorted(ROOT.glob("perfbench/*.py")))


def _public_definitions(modules):
    """``{name: [defining file]}`` of public module-level functions and
    classes, and public methods of module-level classes."""
    found = {}
    for path, module in modules.items():
        defs = list(module.body)
        for node in module.body:
            if isinstance(node, ast.ClassDef):
                defs.extend(node.body)
        for node in defs:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                found.setdefault(node.name, []).append(path.name)
    return found


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


def test_every_public_name_is_loaded_by_a_program():
    public = _public_definitions(_modules())
    assert public
    loaded = _referenced(_programs())
    unused = sorted(f"{name} ({', '.join(files)})"
                    for name, files in public.items()
                    if name not in loaded and name not in TEST_ONLY)
    assert unused == []
    # an allowlisted name that a program now loads, or that is gone, leaves
    assert sorted(name for name in TEST_ONLY
                  if name in loaded or name not in public) == []


def test_check_finds_an_unloaded_public_name():
    # a function, class or method no program loads is found; an import
    # and an __all__ entry are no loads
    module = ast.parse("from m import helper\n\n"
                       "__all__ = ['unused', 'Thing']\n\n"
                       "def unused():\n    pass\n\n"
                       "def used():\n    pass\n\n"
                       "class Thing:\n    def run(self):\n        pass\n\n"
                       "    def _hidden(self):\n        pass\n\n"
                       "Thing().run()\nused()\n")
    modules = {Path("m.py"): module}
    public = _public_definitions(modules)
    assert sorted(public) == ["Thing", "run", "unused", "used"]
    assert sorted(n for n in public if n not in _referenced(modules)) == [
        "unused"]


def _bound(module):
    """Every name a module binds at its top level: imports, definitions
    and assignment targets."""
    names = set()
    for node in module.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        else:
            names.update(sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name)
                         and isinstance(sub.ctx, ast.Store))
    return names


def test_the_public_api_is_declared_once():
    modules = _modules()
    assert sorted(path.name for path, module in modules.items()
                  if "__all__" in _bound(module)) == []
    assert _bound(modules[SRC / "bcfsim" / "__init__.py"]) == {"__version__"}


def test_check_finds_an_all_and_a_reexport():
    module = ast.parse('"""Doc."""\n\nimport os.path\n'
                       "from .m import a, b as c\nfrom .n import *\n\n"
                       "__all__ = ['a']\n__all__ += ['c']\n"
                       "__version__: str = '1'\n\n"
                       "def f():\n    d = 1\n\nclass K:\n    pass\n")
    assert _bound(module) == {"os", "a", "c", "*", "__all__", "__version__",
                              "f", "K"}
    assert _bound(ast.parse('"""Doc."""\n\n__version__ = "1"\n')) == {
        "__version__"}
