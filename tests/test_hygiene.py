"""Source hygiene: every import in the library is used, and every
exported name exists."""

import ast
import os

import pytest

import minidl

PACKAGE_DIR = os.path.dirname(minidl.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def imported_names(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    """Names read anywhere in the module, plus the strings in
    ``__all__``, which re-export what the module imports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=module)
    used = used_names(tree)
    unused = [
        "%s (line %d)" % (name, line)
        for name, line in imported_names(tree)
        if name not in used
    ]
    assert not unused, "%s imports names it never uses: %s" % (module, ", ".join(unused))


def test_every_exported_name_resolves():
    missing = [name for name in minidl.__all__ if not hasattr(minidl, name)]
    assert not missing, "minidl.__all__ names missing attributes: %s" % missing
    assert len(set(minidl.__all__)) == len(minidl.__all__)
