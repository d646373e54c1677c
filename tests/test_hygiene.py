"""Every module-level import in the package is used by its module, and every
top-level function, class and UPPER_CASE constant, and every method of a
top-level class, is referenced somewhere in the package. Every backticked
dotted ``flexcep.…`` name in README.md resolves, and so does every console
script in pyproject.toml. No module reads the environment.

A deletion that leaves an import or a helper behind shows up here;
``__init__.py`` is skipped as a module under check because its imports are
the package's re-exports. Names it exports, ``main`` (entry points) and
``oracle.py`` (the test oracle and fixture generator) are public surface
without callers inside the package and are exempt from the reference check,
as are dunder methods, which Python calls itself, and overrides of a method
of a builtin or standard-library base class, which that base calls.
"""

import ast
import builtins
import importlib
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "flexcep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
README = PACKAGE.parents[1] / "README.md"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


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


def base_attributes(node: ast.ClassDef) -> set[str]:
    """Attribute names of the bases of ``node`` that are builtins or dotted
    names in an importable module, such as ``argparse.ArgumentParser``."""
    names = set()
    for base in node.bases:
        parts = ast.unparse(base).split(".")
        try:
            obj = (importlib.import_module(parts[0]) if len(parts) > 1
                   else getattr(builtins, parts[0]))
            for attr in parts[1:]:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            continue
        names |= set(dir(obj))
    return names


def unreferenced_definitions(sources: dict[str, str], checked: set[str],
                             exempt: set[str]) -> list[str]:
    """``module.name`` of top-level functions, classes and UPPER_CASE
    constants, and ``module.Class.method`` of their methods, in the
    ``checked`` modules that no module in ``sources`` reads.

    A name counts as read when some module loads it as a name or an
    attribute; its own ``def``/``class`` statement or assignment does not
    count. Dunder methods and overrides of a base's method (see
    :func:`base_attributes`) are never reported.
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
                inherited = base_attributes(node)
                unread += [f"{module}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not (sub.name.startswith("__") and sub.name.endswith("__"))
                           and sub.name not in read and sub.name not in inherited]
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
              "    def uncalled(self):\n        pass\n"
              "import argparse\n"
              "class Parser(argparse.ArgumentParser):\n"
              "    def error(self, message):\n        pass\n"
              "    def uncalled(self):\n        pass\n"
              "class Local(Kept):\n    def error(self):\n        pass\n"),
        "b": ("import a\nused()\na.via_attr()\na.Kept().called()\n"
              "limit = a.LIMIT\na.Parser()\na.Local()\n"),
    }
    assert unreferenced_definitions(sources, {"a", "b"}, {"Exported", "EXPORTED"}) == [
        "a.UNREAD", "a.only_defined", "a.Orphan", "a.Kept.uncalled", "a.Parser.uncalled",
        "a.Local.error"]
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
    ``names`` as a name, an attribute, a string constant or a part of an
    imported module's dotted path."""
    found = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id in names
                    or isinstance(sub, ast.Attribute) and sub.attr in names
                    or isinstance(sub, ast.Constant) and sub.value in names
                    or isinstance(sub, ast.ImportFrom)
                    and names & set((sub.module or "").split("."))
                    or isinstance(sub, ast.alias) and names & set(sub.name.split("."))):
                found.append(owner)
    return found


def test_use_finder_names_the_enclosing_function():
    source = ("import warnings\n"
              "def helper():\n    with warnings.catch_warnings():\n        pass\n"
              "def other():\n    return 'catch_warnings'\n"
              "catch_warnings = None\n")
    assert uses_by_function(source, {"catch_warnings"}) == ["helper", "other", "<module>"]
    source = ("from scipy.optimize._highspy import _core\n"
              "def loader():\n    import scipy.optimize._highspy._core as core\n"
              "def aliased():\n    from scipy.optimize import _highspy\n"
              "def unrelated():\n    from scipy.optimize import milp\n")
    assert uses_by_function(source, {"_highspy"}) == ["<module>", "loader", "aliased"]


def test_warning_filters_are_entered_in_one_helper_only():
    # filters are process-wide: one entered per solve in a worker thread
    # would race with the others and could leave its filter installed
    uses = {f"{p.stem}.{owner}"
            for p in PACKAGE.glob("*.py")
            for owner in uses_by_function(p.read_text(encoding="utf-8"),
                                          {"catch_warnings", "Unrecognized options detected"})}
    assert uses == {"solvers.highs_option_passthrough"}


def test_the_private_highs_binding_is_read_in_solvers_only():
    # one module decides whether scipy's private binding is there and falls
    # back without it; a second reader would need its own tested fallback
    uses = {(p.stem, owner)
            for p in PACKAGE.glob("*.py")
            for owner in uses_by_function(p.read_text(encoding="utf-8"), {"_highspy"})}
    assert uses and {module for module, _ in uses} == {"solvers"}


# the package reads no environment variable
ENVIRONMENT_READERS = set()


def environment_readers(sources: dict[str, str]) -> set[str]:
    """``module.function`` of each place that reads ``os.environ`` or ``os.getenv``."""
    return {f"{module}.{owner}" for module, source in sources.items()
            for owner in uses_by_function(source, {"environ", "getenv"})}


def test_environment_checker_flags_every_read():
    sources = {
        "solvers": ("import os\n"
                    "def _solver_path():\n    return os.environ.get('PYTHONPATH')\n"),
        "pha": "import os\ndef _hedge():\n    return os.getenv('FLEXCEP_FAST')\n",
    }
    assert environment_readers(sources) == {"solvers._solver_path", "pha._hedge"}


def test_no_hidden_switches():
    # a setting belongs in a config dataclass or a CLI flag, not in the environment
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert environment_readers(sources) == ENVIRONMENT_READERS


def readme_names(text: str) -> list[str]:
    """Backticked dotted ``flexcep.…`` names in ``text``, a trailing ``()`` dropped."""
    return re.findall(r"`(flexcep(?:\.\w+)+)(?:\(\))?`", text)


def resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute chain of its longest importable prefix."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_readme_name_checker():
    text = "see `flexcep.pha.run_pha`, `flexcep.solvers.solve()`, `flexcep` and `x.y`"
    assert readme_names(text) == ["flexcep.pha.run_pha", "flexcep.solvers.solve"]
    assert resolves("flexcep.pha") and resolves("flexcep.pha.PHAConfig.max_iterations")
    assert not resolves("flexcep.pha.no_such_name")
    assert not resolves("flexcep.no_such_module.run_pha")


def test_every_flexcep_name_in_the_readme_resolves():
    names = readme_names(README.read_text(encoding="utf-8"))
    assert names
    assert [name for name in names if not resolves(name)] == []


def test_every_console_script_resolves():
    # a script left pointing at a deleted module would fail only once installed
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), name
