"""Every export of the package resolves, so a deletion cannot leave a stale
name behind in a module's __all__, in the package's own imports or in the
README's table of modules."""

import ast
import importlib
import os
import pkgutil
import re

import gibbslab

INIT = gibbslab.__file__
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _modules():
    return [importlib.import_module(f"gibbslab.{info.name}")
            for info in pkgutil.iter_modules(gibbslab.__path__)]


def _stale_exports():
    """(module, name) for every name of a module's __all__ it lacks."""
    return [(mod.__name__, name) for mod in _modules()
            for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)]


def _package_imports():
    """(module, name) for every name gibbslab/__init__.py imports from one
    of its modules, read from its source."""
    with open(INIT, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _unexported_imports():
    """(module, name) for every package import its module does not list in
    __all__ (a module without __all__ lists nothing)."""
    return [(mod, name) for mod, name in _package_imports()
            if name not in getattr(importlib.import_module(
                f"gibbslab.{mod}"), "__all__", ())]


def test_every_module_export_resolves():
    assert any(hasattr(mod, "__all__") for mod in _modules())
    assert _stale_exports() == []


def test_every_package_import_is_a_module_export():
    imports = _package_imports()
    assert ("fock", "solve_point") in imports
    assert _unexported_imports() == []
    for mod, name in imports:
        assert getattr(gibbslab, name) is getattr(
            importlib.import_module(f"gibbslab.{mod}"), name)


def test_a_stale_export_is_caught(monkeypatch):
    # negative control: a name a module still lists after its deletion, and
    # a package import its module no longer lists
    fock = importlib.import_module("gibbslab.fock")
    monkeypatch.setattr(fock, "__all__",
                        [*fock.__all__, "reduced_density_matrices"])
    assert _stale_exports() == [("gibbslab.fock",
                                 "reduced_density_matrices")]
    monkeypatch.setattr(fock, "__all__",
                        [n for n in fock.__all__ if n != "solve_point"])
    assert _unexported_imports() == [("fock", "solve_point")]


def _layout_rows(text: str) -> list:
    """The module of every row of the README's "Library layout" table."""
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `gibbslab\.(\w+)` \|", section, re.MULTILINE)


def _layout_mismatch(text: str) -> tuple:
    """(rows naming no module, modules with no row) of the table."""
    rows = _layout_rows(text)
    modules = {info.name for info in pkgutil.iter_modules(gibbslab.__path__)}
    return (sorted(set(rows) - modules), sorted(modules - set(rows)))


def test_readme_layout_names_every_module_once():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    rows = _layout_rows(text)
    assert "fock" in rows and len(rows) == len(set(rows))
    assert _layout_mismatch(text) == ([], [])


def test_a_stale_layout_row_is_caught():
    # negative control: a row for a module that does not exist, and a
    # module whose row is missing
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    ghost = text.replace("| `gibbslab.cli` |",
                         "| `gibbslab.ghost` | gone |\n| `gibbslab.cli` |")
    assert _layout_mismatch(ghost) == (["ghost"], [])
    missing = re.sub(r"^\| `gibbslab\.metrics` \|.*\n", "", text,
                     flags=re.MULTILINE)
    assert _layout_mismatch(missing) == ([], ["metrics"])
