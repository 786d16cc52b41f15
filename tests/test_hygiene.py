"""Source hygiene: every import in the library is used, every
exported name exists, and every function, class and method is used."""

import ast
import collections
import os
import re

import pytest

import minidl

PACKAGE_DIR = os.path.dirname(minidl.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def referenced_names(node):
    """How often each name is read, as a bare name or an attribute,
    anywhere under ``node``."""
    counts = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
    return counts


def test_every_definition_is_used():
    """A function, class or method counts as used when the library
    refers to it outside its own body (re-exports in ``__init__`` do not
    count), or when README.md or a perfbench file names it."""
    refs = collections.Counter()
    definitions = []
    for module in MODULES:
        with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=module)
        if module != "__init__.py":
            refs += referenced_names(tree)
        definitions += [
            (module, node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
    docs = [os.path.join(REPO_DIR, "README.md")]
    bench_dir = os.path.join(REPO_DIR, "perfbench")
    docs += [os.path.join(bench_dir, f) for f in sorted(os.listdir(bench_dir))
             if os.path.isfile(os.path.join(bench_dir, f))]
    named = set()
    for path in docs:
        with open(path, encoding="utf-8") as f:
            named.update(re.findall(r"\w+", f.read()))
    unused = [
        "%s:%d %s" % (module, node.lineno, node.name)
        for module, node in definitions
        if refs[node.name] <= referenced_names(node)[node.name] and node.name not in named
    ]
    assert not unused, "defined but never used: %s" % ", ".join(unused)
