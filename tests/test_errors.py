"""Every error type declared in errors.py has a raise site in the
package, so error types that nothing raises cannot pile up there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "posverif"


def _declared_errors() -> set[str]:
    """PosverifError subclasses of errors.py, by class name."""
    declared = {"PosverifError"}
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in declared
                for base in node.bases):
            declared.add(node.name)
    return declared - {"PosverifError"}


def _raised_names() -> set[str]:
    """Names raised anywhere in src/posverif, called or bare."""
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def test_every_error_type_has_a_raise_site():
    declared = _declared_errors()
    assert {"LengthMismatch", "MalformedMessage", "ConfigInvalid"} <= declared
    assert sorted(declared - _raised_names()) == []
