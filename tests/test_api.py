"""The public API surface: every name a ggp module exports resolves, and no
module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ggp

MODULES = sorted(info.name for info in pkgutil.iter_modules(ggp.__path__, "ggp."))


def test_the_package_has_its_modules():
    assert {"ggp.festoon", "ggp.hull", "ggp.rescale", "ggp.sampling"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _unused_imports(path: Path) -> list[str]:
    """Names that a module imports but never reads; names it lists in
    __all__ count as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    root = Path(__file__).resolve().parent
    paths = [*sorted((root.parent / "src" / "ggp").glob("*.py")), *sorted(root.glob("*.py"))]
    unused = [u for p in paths if p.name != "__init__.py" for u in _unused_imports(p)]
    assert unused == []
