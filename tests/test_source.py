"""Static checks on the library source."""

import ast
import os
import pathlib
import subprocess
import sys

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


def _unreferenced_privates(source: str) -> list:
    """Module-level underscore names (not dunders) a module defines but never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in read)


def test_unreferenced_private_is_detected():
    assert _unreferenced_privates(
        "def _a(): pass\ndef _b(): return _c\n_c = 1\n_d, _e = 2, 3\n"
        "class _F: pass\n_g: int = 0\n__all__ = []\ndef h(): _b(); _e\n"
        "def i(): _j = 1\n") == ["_F (line 5)", "_a (line 1)", "_d (line 4)",
                                  "_g (line 6)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name_it_defines(path):
    # a private helper left behind by a deletion is dead code
    assert _unreferenced_privates(path.read_text()) == []


def test_all_lists_exactly_the_package_imports():
    tree = ast.parse((_SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert sorted(pegservo.__all__) == sorted(imported | {"__version__"})
    assert len(set(pegservo.__all__)) == len(pegservo.__all__)
    for name in pegservo.__all__:
        assert getattr(pegservo, name) is not None, name


def _calls_of(source: str, name: str) -> list:
    """Lines where a call reaches `name`, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_call_is_detected():
    assert _calls_of("f(x)\ng.f(y)\nf\nh(f)\n", "f") == [1, 2]


@pytest.mark.parametrize("path", [p for p in _MODULES
                                  if p.name not in ("geometry.py", "sim.py")],
                         ids=lambda p: p.name)
def test_error_directions_come_from_the_world_config(path):
    # geometry defines error_direction and WorldConfig caches it per camera;
    # every other module reads WorldConfig.error_directions
    assert _calls_of(path.read_text(), "error_direction") == []


def _rng_parameters(source: str) -> list:
    """Parameters named rng or rngs, as "function.parameter (line)"."""
    return sorted(f"{node.name}.{arg.arg} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for arg in (*node.args.posonlyargs, *node.args.args,
                              *node.args.kwonlyargs, node.args.vararg, node.args.kwarg)
                  if arg is not None and arg.arg in ("rng", "rngs"))


def test_rng_parameter_is_detected():
    assert _rng_parameters("def f(x, rng=None): pass\nasync def g(*, rngs): pass\n"
                           "def h(*rng): pass\ndef i(rng_seed, **kw): pass\n") == [
        "f.rng (line 1)", "g.rngs (line 2)", "h.rng (line 3)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_function_takes_an_rng(path):
    # randomness is seeded inside, from data or config: a caller threads no stream
    assert _rng_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in _MODULES if p.name != "geometry.py"],
                         ids=lambda p: p.name)
def test_stacked_dot_products_come_from_geometry(path):
    # a row-wise dot product spelled as a stacked matmul belongs to geometry's
    # kernels (inplane_component, inplane_norm, scalar_error)
    assert "None, :] @" not in path.read_text()


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_needs_no_scipy(path):
    # numpy is the only runtime dependency; scipy is a test dependency
    assert "scipy" not in path.read_text()


def test_import_loads_no_costly_module():
    # concurrent.futures costs a large share of start-up, and only a
    # multi-job benchmark imports it, when called; scipy is never imported
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    code = ("import sys, pegservo; "
            "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
