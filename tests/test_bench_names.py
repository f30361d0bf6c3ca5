"""Names and calls that code outside the package relies on in ucenergy.

``perfbench/tracing.py`` rebinds each ``(module, name)`` in its ``LAYERS``
and ``PARTS`` tables; a package function renamed or deleted under it would
break ``--trace``.  ``perfbench/workloads.py`` calls the public API with its
own arguments; a change to a signature it uses would fail the benchmark, so
each workload runs once here, in-process.  This only reads ``perfbench/``.
A stale ``__all__`` entry would break ``from ucenergy import *``.

The last two tests keep the package free of code that nothing runs: every
function, method and property in ``src/ucenergy`` must be named by package
code outside its own body, exported in ``__all__`` or traced by the
benchmark, and every module-level constant and class must be read by
package code outside its own statement or exported, save the few listed
with their reasons.  Functions that only the trace names are listed too, so
what benchmark v2 frees stays in view.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "ucenergy"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    entries = tracing.LAYERS + tracing.PARTS
    assert entries
    for module, name, *_ in entries:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_public_names_resolve():
    namespace = {}
    exec("from ucenergy import *", namespace)
    ucenergy = importlib.import_module("ucenergy")
    assert ucenergy.__all__
    assert set(ucenergy.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["search", "census", "enumerate", "paper"])
def test_every_benchmark_workload_passes_its_checks(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = workloads.Checks()
    workloads.WORKLOADS[name](11, checks)
    assert checks.attempted > 0
    assert checks.failures == []


# Functions that only tests and users call, each with its reason.
UNCALLED_BY_DESIGN = set()

# Functions that only the benchmark's trace names; benchmark v2 drops them.
KEPT_FOR_THE_TRACE = {"trees.free_tree_code"}


def _definitions(tree: ast.Module, prefix: str):
    """(qualified name, def node) of every function, method and property."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")


def _names_used(node: ast.AST) -> Counter:
    """Names read as variables or attributes anywhere under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _package():
    """(module name -> parsed tree, names read anywhere, names __all__ exports)."""
    trees = {
        path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    return trees, used, set(importlib.import_module("ucenergy").__all__)


def test_every_package_function_has_a_caller(monkeypatch):
    # a function is kept when package code outside its own body names it,
    # when __all__ exports it, or when the benchmark's trace names it; those
    # the trace alone keeps are listed too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    traced = {name for _, name, *_ in tracing.LAYERS + tracing.PARTS}
    trees, used, exported = _package()
    uncalled = [
        (qualified, node.name)
        for module, tree in trees.items()
        for qualified, node in _definitions(tree, module + ".")
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _names_used(node)[node.name]
        and node.name not in exported
    ]
    unused = [qualified for qualified, name in uncalled if name not in traced]
    only_traced = [qualified for qualified, name in uncalled if name in traced]
    assert sorted(unused) == sorted(UNCALLED_BY_DESIGN)
    assert sorted(only_traced) == sorted(KEPT_FOR_THE_TRACE)


# Module-level constants and classes that only tests and users read, each
# with its reason.
UNREAD_BY_DESIGN = {
    # the public tuple of domain names, kept by name beside the domain map
    "certify.DOMAINS",
}


def _bindings(tree: ast.Module):
    """(name, node) of every class and every name a module-level assignment
    binds."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def test_every_package_constant_and_class_is_read():
    # kept when package code outside its own statement reads it or when
    # __all__ exports it; a constant only tests read belongs in the tests
    trees, used, exported = _package()
    unread = [
        module + "." + name
        for module, tree in trees.items()
        for name, node in _bindings(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and used[name] == _names_used(node)[name]
        and name not in exported
    ]
    assert sorted(unread) == sorted(UNREAD_BY_DESIGN)
