"""The benchmark's span tracer patches package names from outside: each
``TARGETS`` entry of ``perfbench/tracing.py`` must still resolve, or a
rename would silently drop the per-layer metrics that need it."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    """The literal ``TARGETS`` tuple, read without importing perfbench."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module, qualname, _, _ in targets:
        # looked up as the tracer does: by name in each owner's namespace
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                missing.append(f"{module}.{qualname}")
                break
    assert missing == []
