"""Static checks on the library source."""

import ast
import pathlib

import pytest

import pegservo

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pegservo"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_detected():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_errors_module_touches_the_disk(path):
    # every artifact goes through errors.write_artifact(s) / read_artifact
    source = path.read_text()
    assert [call for call in ("open(", "os.makedirs", "np.fromfile", ".tofile(")
            if call in source] == []


def _private_imports(source: str) -> list:
    """Underscore names (not dunders) a module imports from a pegservo module."""
    return sorted(f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("pegservo"))
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


def test_private_import_is_detected():
    assert _private_imports("from .a import b, _c\nfrom pegservo.d import _e\n"
                            "from os import _exit\nfrom . import __version__\n"
                            ) == ["_c (line 1)", "_e (line 2)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(path):
    # a module reaches another only through its public names
    assert _private_imports(path.read_text()) == []


def test_all_lists_exactly_the_package_imports():
    tree = ast.parse((_SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert sorted(pegservo.__all__) == sorted(imported | {"__version__"})
    assert len(set(pegservo.__all__)) == len(pegservo.__all__)
    for name in pegservo.__all__:
        assert getattr(pegservo, name) is not None, name
