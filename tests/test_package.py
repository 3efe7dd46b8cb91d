"""Tests for the package namespace."""

import ast
from pathlib import Path

import attrarith
from attrarith import errors


def test_every_export_resolves():
    # the lazy exports resolve only on first access, so a stale entry in
    # attrarith._LAZY shows only here
    for name in attrarith.__all__:
        assert getattr(attrarith, name) is not None, name


def test_every_error_class_is_raised():
    # a class that nothing in the package raises names a case that cannot arise
    raised = set()
    for path in Path(attrarith.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.AttrarithError)}
    assert classes - {"AttrarithError", "ComputationFailure"} - raised == set()
