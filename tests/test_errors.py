"""Every error type the package declares is one the package raises."""

import ast
import inspect
from pathlib import Path

import fsconv
import fsconv.errors

SRC = Path(fsconv.__file__).parent


def _named(node: ast.expr) -> set[str]:
    """The class a `raise` or a warning category names: `X`, `X(...)` or `mod.X(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_type_but_the_base_is_raised_or_warned():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _named(node.exc)
            elif isinstance(node, ast.Call) and _named(node) == {"warn"}:
                categories = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
                for category in categories:
                    used |= _named(category)
    declared = {name for name, cls in inspect.getmembers(fsconv.errors, inspect.isclass)
                if cls.__module__ == fsconv.errors.__name__}
    assert declared - {"FilterSummaryError"} <= used, declared - used
