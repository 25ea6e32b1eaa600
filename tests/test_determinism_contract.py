"""README's determinism contract, checked against the package's source.

The contract says which artifact bytes may move with the numpy or scipy
version, or with the C library behind Python's ``math``. This test parses
every module of ``src/bcfsim`` and lists each callable of those libraries
that it reaches: ``np.X``, ``np.random.X``, ``np.add.reduce`` and the like,
``math.X``, and every ``scipy.special`` name imported or called. ``CONTRACT``
classifies each one by the artifact groups whose last bits its results can
move:

- datasets: the synthetic draws (digests.csv, the scatter files, and
  everything computed from a draw);
- draws: the posterior draws of every fit;
- metrics: the per-fit metrics computed from the draws, and their summaries;
- p-values: the rank tests' p-values.

An empty entry moves none: it is exact under IEEE arithmetic (a comparison,
a copy, ``sqrt``), counts integers, or reaches no artifact. The test fails
on a reached name the table does not list, on a listed name nothing
reaches, and on a group's name the README's bullet for that group does not
give. Methods of arrays and generators (``.sum()``, ``rng.gamma``) are not
listed by name; the contract covers them as summation order and as the
generator.
"""

import ast
import importlib
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARIES = ("numpy", "scipy", "math")
GROUPS = ("datasets", "draws", "metrics", "p-values")

CONTRACT = {
    "math.exp": ("draws",),
    "math.isfinite": (),
    "math.log": ("draws",),
    "math.log1p": ("draws",),
    "math.sqrt": (),
    "numpy.abs": (),
    "numpy.add.reduce": ("draws",),
    "numpy.add.reduceat": (),
    "numpy.all": (),
    "numpy.any": (),
    "numpy.arange": (),
    "numpy.argsort": (),
    "numpy.array": (),
    "numpy.asarray": (),
    "numpy.ascontiguousarray": (),
    "numpy.asfortranarray": (),
    "numpy.bincount": (),
    "numpy.clip": (),
    "numpy.column_stack": (),
    "numpy.concatenate": (),
    "numpy.copysign": (),
    "numpy.cumsum": (),
    "numpy.diff": (),
    "numpy.empty": (),
    "numpy.errstate": (),
    "numpy.finfo": (),
    "numpy.flatnonzero": (),
    "numpy.float_power": ("p-values",),
    "numpy.fromiter": (),
    "numpy.full": (),
    "numpy.int8": (),
    "numpy.intp": (),
    "numpy.isfinite": (),
    "numpy.isscalar": (),
    "numpy.linspace": ("draws",),
    "numpy.log": ("draws",),
    "numpy.maximum": (),
    "numpy.maximum.reduce": (),
    "numpy.mean": ("metrics",),
    "numpy.median": ("p-values",),
    "numpy.min_scalar_type": (),
    "numpy.minimum": (),
    "numpy.minimum.reduce": (),
    "numpy.ndarray": (),
    "numpy.not_equal": (),
    "numpy.quantile": ("metrics",),
    "numpy.random.SeedSequence": ("datasets", "draws"),
    "numpy.random.default_rng": ("datasets", "draws"),
    "numpy.repeat": (),
    "numpy.searchsorted": (),
    "numpy.sin": ("datasets",),
    "numpy.sqrt": (),
    "numpy.unique": (),
    "numpy.where": (),
    "numpy.zeros": (),
    "scipy.special.chdtrc": ("p-values",),
    "scipy.special.expit": ("datasets",),
    "scipy.special.fdtrc": ("p-values",),
    "scipy.special.gammaincinv": ("draws",),
    "scipy.special.log_ndtr": ("draws",),
    "scipy.special.ndtr": ("draws", "p-values"),
    "scipy.special.ndtri": ("draws",),
    "scipy.special.ndtri_exp": ("draws",),
}


def _resolve(dotted: str):
    """The object a dotted name reaches: its longest importable module
    prefix, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def _library_names(tree: ast.Module) -> set[str]:
    """The dotted names of the library objects a module imports by name or
    reaches through an attribute chain on an imported library module."""
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
                names.add(f"{node.module}.{alias.name}")
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *reversed(attrs)]))
    return {name for name in names if name.split(".")[0] in LIBRARIES}


def _reached() -> set[str]:
    """Every library callable a module of the package reaches."""
    reached = set()
    for path in sorted((ROOT / "src" / "bcfsim").glob("*.py")):
        for name in _library_names(ast.parse(path.read_text("utf-8"))):
            obj = _resolve(name)
            if callable(obj) and not isinstance(obj, types.ModuleType):
                reached.add(name)
    return reached


def _contract_bullets() -> dict[str, str]:
    """README's determinism-contract bullets, by the group each leads
    with in bold, each joined into one line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Determinism contract\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"\n(?=- )", section):
        lead = re.match(r"- \*\*([\w-]+)\*\*", bullet)
        if lead:
            bullets[lead.group(1).lower()] = " ".join(bullet.split())
    return bullets


def test_every_library_callable_is_in_the_contract_table():
    reached = _reached()
    assert sorted(reached - set(CONTRACT)) == [], "reached but not listed"
    assert sorted(set(CONTRACT) - reached) == [], "listed but not reached"
    for name, groups in CONTRACT.items():
        assert set(groups) <= set(GROUPS), name


def test_readme_names_each_entry_under_its_groups():
    bullets = _contract_bullets()
    assert sorted(bullets) == sorted(GROUPS)
    for name, groups in CONTRACT.items():
        library, short = re.match(r"(scipy\.special|numpy|math)\.(.+)",
                                  name).groups()
        spelled = re.compile(rf"`(?:{re.escape(library)}\.)?"
                             rf"{re.escape(short)}`")
        for group in groups:
            assert spelled.search(bullets[group]), (name, group)
