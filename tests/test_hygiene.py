"""Every module-level import in the package is used by its module, and every
top-level function, class and UPPER_CASE constant, and every method of a
top-level class, is referenced somewhere in the package.

A deletion that leaves an import or a helper behind shows up here;
``__init__.py`` is skipped as a module under check because its imports are
the package's re-exports. Names it exports, ``main`` (entry points) and
``oracle.py`` (the test oracle and fixture generator) are public surface
without callers inside the package and are exempt from the reference check,
as are dunder methods, which Python calls itself.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flexcep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def unreferenced_definitions(sources: dict[str, str], checked: set[str],
                             exempt: set[str]) -> list[str]:
    """``module.name`` of top-level functions, classes and UPPER_CASE
    constants, and ``module.Class.method`` of their methods, in the
    ``checked`` modules that no module in ``sources`` reads.

    A name counts as read when some module loads it as a name or an
    attribute; its own ``def``/``class`` statement or assignment does not
    count. Dunder methods are never reported.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module in sorted(checked):
        for node in trees[module].body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread += [f"{module}.{t.id}" for t in targets
                           if isinstance(t, ast.Name) and t.id.isupper()
                           and t.id not in exempt and t.id not in read]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in exempt and node.name not in read:
                unread.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unread += [f"{module}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not (sub.name.startswith("__") and sub.name.endswith("__"))
                           and sub.name not in read]
    return unread


def exported_names() -> set[str]:
    """Names that ``__init__.py`` imports, i.e. the package's public surface."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names}


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import sys\n"
              "from json import dumps as to_text, loads\n"
              "sys.exit(loads('0'))\n")
    assert unused_imports(source) == ["os", "osp", "to_text"]


def test_definition_checker_counts_names_and_attributes_only():
    sources = {
        "a": ("LIMIT = 3\nUNREAD: int = 4\nEXPORTED = 5\nlowercase = 6\n"
              "def used():\n    pass\n"
              "def via_attr():\n    pass\n"
              "def only_defined():\n    only_defined_inner = 1\n"
              "class Exported:\n    pass\n"
              "class Orphan:\n    def used(self):\n        pass\n"
              "class Kept:\n    def __init__(self):\n        pass\n"
              "    def called(self):\n        pass\n"
              "    def uncalled(self):\n        pass\n"),
        "b": ("import a\nused()\na.via_attr()\na.Kept().called()\n"
              "limit = a.LIMIT\n"),
    }
    assert unreferenced_definitions(sources, {"a", "b"}, {"Exported", "EXPORTED"}) == [
        "a.UNREAD", "a.only_defined", "a.Orphan", "a.Kept.uncalled"]
    assert unreferenced_definitions(sources, {"b"}, set()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_definition_has_a_caller_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    checked = {p.stem for p in MODULES if p.name != "oracle.py"}
    assert unreferenced_definitions(sources, checked, exported_names() | {"main"}) == []


def uses_by_function(source: str, names: set[str]) -> list[str]:
    """Top-level function (or ``<module>``) of each place that reads one of
    ``names`` as a name, an attribute or a string constant."""
    found = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id in names
                    or isinstance(sub, ast.Attribute) and sub.attr in names
                    or isinstance(sub, ast.Constant) and sub.value in names):
                found.append(owner)
    return found


def test_use_finder_names_the_enclosing_function():
    source = ("import warnings\n"
              "def helper():\n    with warnings.catch_warnings():\n        pass\n"
              "def other():\n    return 'catch_warnings'\n"
              "catch_warnings = None\n")
    assert uses_by_function(source, {"catch_warnings"}) == ["helper", "other", "<module>"]


def test_warning_filters_are_entered_in_one_helper_only():
    # filters are process-wide: one entered per solve in a worker thread
    # would race with the others and could leave its filter installed
    uses = {f"{p.stem}.{owner}"
            for p in PACKAGE.glob("*.py")
            for owner in uses_by_function(p.read_text(encoding="utf-8"),
                                          {"catch_warnings", "Unrecognized options detected"})}
    assert uses == {"solvers.highs_option_passthrough"}
