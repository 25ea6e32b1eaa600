"""The array rule is stated once, in ``bart._floats``.

Every array argument of a public function enters through ``_floats``,
which converts it, names it in a refusal, and refuses a NaN or inf. The
check parses ``src/`` with the AST and finds each call of
``np.asarray(..., dtype=float)`` or ``np.isfinite``, by the function that
makes it; one outside ``_floats`` is a second statement of the rule,
unless ``COMPUTED`` names its function as a check of a value the program
computed, with the reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RULE = ("bart.py", "_floats")

# functions that check a value they computed, not an argument
COMPUTED = {
    ("harness.py", "summarize"):
        "a metric's mean or sd over the replicates can overflow float64",
    ("ranktests.py", "_levene"):
        "a row's sums of squared deviations can overflow float64",
}


def _is_rule_call(node) -> bool:
    """Whether ``node`` calls ``np.isfinite``, or ``np.asarray`` with a
    float dtype."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"):
        return False
    if node.func.attr == "isfinite":
        return True
    dtypes = node.args[1:2] + [k.value for k in node.keywords
                               if k.arg == "dtype"]
    return node.func.attr == "asarray" and any(
        isinstance(d, ast.Name) and d.id == "float" for d in dtypes)


def _rule_calls(tree, filename):
    """``[(filename, function, line)]`` of each such call, by the innermost
    function that makes it (None at module level)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _is_rule_call(node):
            found.append((filename, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _src_calls():
    return [call for path in sorted(SRC.rglob("*.py"))
            for call in _rule_calls(ast.parse(path.read_text("utf-8")),
                                    path.name)]


def test_only_floats_converts_and_checks_an_array_argument():
    allowed = {RULE, *COMPUTED}
    assert [call for call in _src_calls() if call[:2] not in allowed] == []


def test_every_allowed_function_makes_such_a_call():
    # a stale entry would let a later rule statement in unseen
    assert {call[:2] for call in _src_calls()} == {RULE, *COMPUTED}


def test_check_finds_a_bare_conversion_and_a_finite_check():
    tree = ast.parse(
        "def _as_matrix(x):\n"
        "    arr = np.asarray(x, dtype=float)\n"
        "    if not np.isfinite(arr).all():\n"
        "        raise ValueError('x must be finite')\n"
        "    return np.asarray(arr, float), np.asarray(arr)\n")
    assert _rule_calls(tree, "dgp.py") == [
        ("dgp.py", "_as_matrix", 2), ("dgp.py", "_as_matrix", 3),
        ("dgp.py", "_as_matrix", 5)]
