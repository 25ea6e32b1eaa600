"""The count rule and the type rule are each stated once, in ``bart``.

A count argument enters through ``bart._count``, which refuses a value that
is not an integer, or one below the count's least value, naming it. An
object argument enters through ``bart._instance``, which refuses an object
of another type, naming it and the types it takes. The check parses
``src/`` with the AST and finds each refusal (an ``if`` whose true branch
raises) by the function that makes it:

- one whose test calls ``isinstance`` states the type rule;
- one whose test orders a value against an integer literal states a
  count's bound, unless the test also calls ``_is_real`` (a real number's
  bound, under that function's rule), the value is an array's size
  (``len``, ``.shape``, ``.size`` or ``.ndim``) or the comparison is an
  argument of a call (``np.any(u < 0)`` bounds an array's values);

and each read of ``numbers.Integral`` states the count rule's integer
test. One outside the rule's own function is a second statement of the
rule, unless ``ALLOWED`` names its function with the reason.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from bcfsim.bart import _count, _instance
from bcfsim.harness import ExperimentConfig

SRC = Path(__file__).resolve().parents[1] / "src"

RULES = {("bart.py", "_count"), ("bart.py", "_instance")}

# functions that refuse by a rule of their own, each with the reason
ALLOWED = {
    ("harness.py", "ExperimentConfig.__post_init__"):
        "a second replicate is needed only when there are models to "
        "compare, a bound that depends on another field",
    ("harness.py", "_read_cell"):
        "a checkpoint's fit seconds are floats parsed from a file, refused "
        "naming its line",
    ("harness.py", "_read_run_config"):
        "run_config.json holds a JSON value parsed from a file, refused "
        "naming the file",
}

_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_SIZES = ("shape", "size", "ndim")


def _calls(node, name) -> bool:
    """Whether ``node`` calls the function ``name`` anywhere."""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == name for n in ast.walk(node))


def _is_size(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len") or any(
        isinstance(n, ast.Attribute) and n.attr in _SIZES
        for n in ast.walk(node))


def _compares(node):
    """The comparisons of ``node`` outside any call: one inside, such as
    ``np.any(u < 0)``, bounds an array's values."""
    if isinstance(node, ast.Compare):
        yield node
    if not isinstance(node, ast.Call):
        for child in ast.iter_child_nodes(node):
            yield from _compares(child)


def _bounds_a_count(test) -> bool:
    """Whether ``test`` orders a value that is no array size against an
    integer literal, outside a call and an ``_is_real`` check."""
    if _calls(test, "_is_real"):
        return False
    for node in _compares(test):
        operands = [node.left, *node.comparators]
        for op, (left, right) in zip(node.ops, zip(operands, operands[1:])):
            for literal, value in ((left, right), (right, left)):
                if (isinstance(op, _ORDER)
                        and isinstance(literal, ast.Constant)
                        and type(literal.value) is int
                        and not _is_size(value)):
                    return True
    return False


def _statements(tree, filename):
    """``[(filename, function, line)]`` of each statement of either rule,
    by the innermost function that makes it, a method as
    ``Class.method`` (None at module level)."""
    found = []

    def visit(node, function, cls=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if cls is None else f"{cls}.{node.name}"
            cls = None
        if (isinstance(node, ast.If)
                and any(isinstance(n, ast.Raise)
                        for stmt in node.body for n in ast.walk(stmt))
                and (_calls(node.test, "isinstance")
                     or _bounds_a_count(node.test))):
            found.append((filename, function, node.lineno))
        if (isinstance(node, ast.Attribute) and node.attr == "Integral"
                and isinstance(node.value, ast.Name)
                and node.value.id == "numbers"):
            found.append((filename, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function, cls)

    visit(tree, None)
    return found


def _src_statements():
    return [found for path in sorted(SRC.rglob("*.py"))
            for found in _statements(ast.parse(path.read_text("utf-8")),
                                     path.name)]


def test_only_count_and_instance_state_the_rules():
    allowed = RULES | ALLOWED.keys()
    assert [s for s in _src_statements() if s[:2] not in allowed] == []


def test_every_allowed_function_states_a_rule():
    # a stale entry would let a later restatement in unseen
    assert {s[:2] for s in _src_statements()} == RULES | ALLOWED.keys()


def test_check_finds_a_type_check_a_count_bound_and_an_integer_test():
    tree = ast.parse(
        "def fit_bcf(config, n_mc, y, level):\n"
        "    if not isinstance(config, BcfConfig):\n"
        "        raise ValueError('config must be a BcfConfig')\n"
        "    if n_mc < 10_000:\n"
        "        raise ValueError('n_mc must be at least 10000')\n"
        "    ok = isinstance(n_mc, numbers.Integral)\n"
        "    if len(y) < 2 or y.shape[0] > 9:\n"
        "        raise ValueError('y must hold 2 to 9 values')\n"
        "    if not (_is_real(level) and 0 < level < 1):\n"
        "        raise ValueError('level must be in (0, 1)')\n"
        "    if np.any(y < 0):\n"
        "        raise ValueError('y must be nonnegative')\n"
        "    if isinstance(config, FixedSigma):\n"
        "        config = None\n")
    assert _statements(tree, "bcf.py") == [
        ("bcf.py", "fit_bcf", 2), ("bcf.py", "fit_bcf", 4),
        ("bcf.py", "fit_bcf", 6)]


def test_count_returns_an_int_and_names_a_refusal():
    assert _count("n", np.int64(3), 2) == 3
    assert type(_count("n", np.int64(3))) is int
    assert _count("seed", -5) == -5
    with pytest.raises(ValueError, match=r"^n must be at least 2, got 1$"):
        _count("n", 1, 2)
    for value in (2.0, True, "2", None):
        with pytest.raises(ValueError,
                           match=rf"^n must be an integer, got {value!r}$"):
            _count("n", value, 2)


def test_instance_names_every_kind_with_its_article():
    config = ExperimentConfig()
    assert _instance("config", config, ExperimentConfig) is config
    cases = [((ExperimentConfig,), "an ExperimentConfig"),
             ((list, tuple), "a list or a tuple"),
             ((int, float, ExperimentConfig),
              "an int, a float or an ExperimentConfig")]
    for kinds, wanted in cases:
        with pytest.raises(ValueError,
                           match=rf"^config must be {wanted}, got 'x'$"):
            _instance("config", "x", *kinds)
