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
_PERFBENCH = sorted((_SRC.parents[1] / "perfbench").glob("*.py"))


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


def _unread_public_names(sources: dict, readers: list) -> list:
    """The public functions, classes, methods and properties that sources
    (module name -> source) define and no code reads, as "module.name".

    A function or class is read by a load of its name, bare or as an
    attribute; a method or property by an attribute load only. A read counts
    in another module, in readers (more sources), or in its own module outside
    its own definition.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defined = []  # (label, module, name, methods only by attribute, node)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defined.append((f"{mod}.{node.name}", mod, node.name, False, node))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    defined.append((f"{mod}.{node.name}.{item.name}", mod, item.name,
                                    True, item))
    reads = {}  # name -> [(module or None, by attribute, node id)]
    for mod, tree in [*trees.items(), *((None, ast.parse(src)) for src in readers)]:
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    reads.setdefault(node.id, []).append((mod, False, id(node)))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, []).append((mod, True, id(node)))
    unread = []
    for label, mod, name, by_attribute, node in defined:
        inside = {id(n) for n in ast.walk(node)}
        if not any((attr or not by_attribute) and (where != mod or at not in inside)
                   for where, attr, at in reads.get(name, ())):
            unread.append(label)
    return sorted(unread)


def test_unread_public_name_is_detected():
    sources = {"a": "def f(): return f()\ndef g(): pass\nclass C:\n"
                    "    def m(self): return self.m\n    @property\n    def p(self): pass\n"
                    "    def _q(self): pass\n    def __len__(self): return 0\n"
                    "def _h(): return g, C\n",
               "b": "import a\na.C().p\n"}
    assert _unread_public_names(sources, ["m()\n"]) == ["a.C.m", "a.f"]
    assert _unread_public_names(sources, ["x.m\nf()\n"]) == []


def test_library_defines_only_what_the_pipeline_reads():
    # a public name only the tests call belongs in the tests; perfbench
    # calls the library through its public names too
    assert _unread_public_names({p.stem: p.read_text() for p in _MODULES},
                                [p.read_text() for p in _PERFBENCH]) == []


def test_names_only_perfbench_reads_are_pinned():
    # entry points kept only because perfbench calls them: the list grows
    # only on purpose, and a benchmark change that stops reading one frees it
    # (its test-only uses then move into the tests)
    sources = {p.stem: p.read_text() for p in _MODULES}
    perfbench = [p.read_text() for p in _PERFBENCH]
    assert sorted(set(_unread_public_names(sources, []))
                  - set(_unread_public_names(sources, perfbench))) == [
        "perception.predict", "pipeline.insert", "servoing.servo_step", "sim.render",
        "sim.spiral_insert"]


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


def test_the_cli_holds_no_rule_and_no_training_loop():
    # RunConfig owns every rule across config sections and bench.train_styles
    # the in-place training: the CLI builds a pattern only for `pegservo
    # pattern`, and never calls configure
    source = (_SRC / "cli.py").read_text()
    [cmd] = [node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == "cmd_pattern"]
    calls = _calls_of(source, "generate_pattern")
    assert calls and all(cmd.lineno <= line <= cmd.end_lineno for line in calls)
    assert _calls_of(source, "configure") == []


def _call_owners(source: str, name: str) -> list:
    """Per call that reaches `name`, bare or as an attribute, the name of the
    top-level definition holding it, or <module>."""
    return sorted(getattr(top, "name", "<module>") for top in ast.parse(source).body
                  for node in ast.walk(top) if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_call_owner_is_detected():
    assert _call_owners("class A:\n    def f(self): return E(1), x.E(2)\n"
                        "def g(): return [E for _ in ()], h(E)\ndef k():\n"
                        "    def inner(): return E()\nE(3)\n", "E") == [
        "<module>", "A", "A", "k"]


def test_episodes_are_built_only_by_the_batch_and_the_rows_reader():
    # a batch of episodes is columns from spiral_search to rows.csv: an
    # Episode object is built only on access to an Episodes batch, and by
    # read_rows as it checks each line of a rows.csv
    owners = {f"{p.stem}.{owner}" for p in _MODULES
              for owner in _call_owners(p.read_text(), "Episode")}
    assert sorted(owners) == ["bench.read_rows", "sim.Episodes"]


def _attribute_reads(source: str, name: str) -> list:
    """Lines where an attribute `name` is read."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == name
                  and isinstance(node.ctx, ast.Load))


def test_attribute_read_is_detected():
    assert _attribute_reads("a.f\nb.f = 1\nf\nc.f.g()\n", "f") == [1, 4]


@pytest.mark.parametrize("path", [p for p in _MODULES
                                  if p.name not in ("geometry.py", "sim.py")],
                         ids=lambda p: p.name)
def test_what_the_cameras_see_comes_from_the_world_config(path):
    # geometry defines the optical axis and WorldConfig.sees owns the rule
    # that every camera has a point in front of it
    assert _attribute_reads(path.read_text(), "optical_axis") == []


def _clock_and_config_seed_reads(source: str) -> list:
    """Lines that reach an attribute elapsed_time or with_seed, or a seed
    through a config (<x>.config.seed)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and (node.attr in ("elapsed_time", "with_seed")
                       or node.attr == "seed" and getattr(node.value, "attr", None) == "config"))


def test_clock_and_config_seed_read_is_detected():
    assert _clock_and_config_seed_reads(
        "w.elapsed_time += 1\ncfg.with_seed(2)\nkey = [world.config.seed, 0]\n"
        "wcfg.seed\nr = {'elapsed_time_s': cfg.time_s}\nw.config.tolerance\n"
        "config.seed\nw.seed\n") == [1, 2, 3]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_a_world_is_its_seed_its_draws_and_its_tcp(path):
    # a world keeps no clock (a servo's time is its ServoConfig's, a search's
    # its attempts'), and its streams are keyed by Worlds.seed: no config
    # is copied to another seed and no seed is read through a world's config
    assert _clock_and_config_seed_reads(path.read_text()) == []


# A block's per-world arrays (sim.Worlds' rows)
_WORLD_FIELDS = {"seed", "true_hole", "grasp_offset", "tcp", "background", "hole_radius_px"}
# What a block's loop may call: per-key streams, the per-world solve
_PER_ROW_CALLS = {"keyed_generators", "reconstruct_error"}


def _counts_rows(node) -> bool:
    """Whether node is a call range(n) of one argument."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
            and len(node.args) == 1)


def _world_loops(source: str) -> list:
    """Loops over a block's worlds in Python, as "function (line)": a for statement or a
    comprehension whose iterable reads a block (a name world or worlds), one of its
    per-world fields (_WORLD_FIELDS), or a name assigned from either in the same
    function, but for a list display (it iterates its items); reading a block's config,
    basis or len is not reading its worlds, except in range(len(block)), which counts
    them one by one. A loop is exempt if it calls one of _PER_ROW_CALLS (per-key stream
    draws, reconstruct_error's per-world solve) or sits in an if whose body raises (the
    search for the first bad row behind an error message)."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def reads_worlds(expr, names):
        for node in ast.walk(expr):
            up = parents.get(node)
            if isinstance(node, ast.Attribute) and node.attr in _WORLD_FIELDS:
                return True
            if (isinstance(node, ast.Name) and node.id in names
                    and not (isinstance(up, ast.Attribute)
                             and up.attr in ("config", "basis", "nominal_hole"))
                    and not (isinstance(up, ast.Call) and getattr(up.func, "id", None) == "len"
                             and not _counts_rows(parents.get(up)))):
                return True
        return False

    def calls(node):
        return any(isinstance(n, ast.Call) and _PER_ROW_CALLS & {
            getattr(n.func, "id", None), getattr(n.func, "attr", None)} for n in ast.walk(node))

    def behind_a_raise(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.If) and any(isinstance(n, ast.Raise) for n in node.body):
                return True
        return False

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = {"world", "worlds"}
        for node in sorted((n for n in ast.walk(func) if isinstance(n, ast.Assign)),
                           key=lambda n: n.lineno):
            if not isinstance(node.value, ast.List) and reads_worlds(node.value,
                                                                     {"world", "worlds"}):
                names |= {n.id for t in node.targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)}
        for node in ast.walk(func):
            loop = node if isinstance(node, ast.For) else parents.get(node)
            if (isinstance(node, (ast.For, ast.comprehension)) and reads_worlds(node.iter, names)
                    and not calls(loop) and not behind_a_raise(loop)):
                found.append(f"{func.name} ({node.iter.lineno})")
    return sorted(set(found))


def test_world_loop_is_detected():
    assert _world_loops(
        "def a(worlds, targets):\n"
        "    for world, target in zip(worlds, targets): world.tcp = target\n"
        "def b(worlds):\n"
        "    holes = np.array([w.true_hole for w in worlds])\n"
        "    return [Episode(seed) for seed in worlds.seed.tolist()]\n"
        "def c(worlds, pattern):\n"
        "    servo = worlds[pattern]\n"
        "    for k in range(len(servo)): pass\n"
        "    for j, cam in enumerate(worlds.config.cameras): pass\n"
        "    for k in range(0, len(worlds), 64): pass\n"
        "    layers = [(worlds.tcp, 1.0), (worlds.tcp, 2.0)]\n"
        "    for rows, scale in layers: pass\n"
        "    n = len(worlds)\n"
        "    for k in range(n): pass\n"
        "    return [reconstruct_error(d, q) for q in worlds.tcp]\n"
        "def d(worlds):\n"
        "    keys = [[s, 0] for s in keyed_generators(worlds.seed)]\n"
        "    for k in np.flatnonzero(worlds.tcp): check(k)\n"
        "    if not ok:\n"
        "        k = next(k for k, h in enumerate(worlds.true_hole) if h)\n"
        "        raise ValueError(k)\n"
        "    holes = [w.true_hole for w in worlds]\n"
        "    return [h for h in holes]\n") == [
            "a (2)", "b (4)", "b (5)", "c (8)", "d (18)", "d (22)", "d (23)"]
    # a count is not a block: range(len(block)) in the loop itself counts its worlds
    assert _world_loops("def e(worlds):\n    for k in range(len(worlds)): pass\n") == [
        "e (2)"]


def test_no_function_loops_over_a_blocks_worlds():
    # a block of worlds is arrays (sim.Worlds), read and moved as arrays: no
    # batched call stacks, builds or writes back one world at a time
    assert {p.name: _world_loops(p.read_text()) for p in _MODULES
            if p.stem in ("sim", "servoing", "pipeline", "bench")} == {
        "bench.py": [], "pipeline.py": [], "servoing.py": [], "sim.py": []}


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


# What builds a numpy stream: a seed sequence, a generator, a bit generator
_STREAM_MAKERS = {"SeedSequence", "default_rng", "Generator", "RandomState", "BitGenerator",
                  "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}


def _stream_sites(source: str) -> list:
    """Calls that build a numpy stream (_STREAM_MAKERS), as
    "innermost enclosing function (line)", or "<module> (line)"."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _STREAM_MAKERS & {
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)}:
                sites.append(f"{where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(sites)


def test_stream_site_is_detected():
    assert _stream_sites("import numpy as np\ndef f():\n    np.random.default_rng(1)\n"
                         "    def g(): return SeedSequence([1])\n"
                         "x = np.random.SeedSequence(2)\nclass C:\n"
                         "    def rng(self): return default_rng(SeedSequence(3))\n") == [
        "<module> (line 5)", "f (line 3)", "g (line 4)", "rng (line 7)", "rng (line 7)"]
    assert _stream_sites("from numpy.random import *\ndef f():\n"
                         "    return np.random.Generator(np.random.PCG64())\n"
                         "def g(): return [RandomState(1), MT19937(2), Philox(3)]\n"
                         "def h(): return SFC64(4), PCG64DXSM(5), BitGenerator(6)\n"
                         "r = np.random.RandomState()\n") == [
        "<module> (line 6)", "f (line 3)", "f (line 3)", "g (line 4)", "g (line 4)",
        "g (line 4)", "h (line 5)", "h (line 5)", "h (line 5)"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_single_streams_are_built_one_at_a_time(path):
    # every stream, a single one too, is a key's row of sim's batched kernel:
    # keyed_generators makes the one Generator, on one PCG64, that draws them
    sites = [site.split(" (")[0] for site in _stream_sites(path.read_text())]
    assert sites == (["keyed_generators"] * 2 if path.name == "sim.py" else [])


def test_the_grid_draws_no_stream_per_row():
    # every grid draw is one kernel call over the whole grid's keys (seed_states,
    # keyed_uniforms), so no per-row reseed loop comes back to bench
    assert "keyed_generators" not in (_SRC / "bench.py").read_text()


_PRODUCTS = {"matmul", "dot", "einsum", "tensordot", "inner", "outer", "vdot"}


def _whole_offsets_products(source: str, function: str) -> list:
    """Lines in `function` of a product (@ or a numpy product call) with the whole of
    pattern.offsets, read directly or through a name assigned from it; a product with
    rows taken from it (a subscript) is not a product over the pattern."""
    [func] = [node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == function]

    def whole(expr, names=()):
        return (isinstance(expr, ast.Attribute) and expr.attr == "offsets"
                and getattr(expr.value, "id", None) == "pattern"
                or isinstance(expr, ast.Name) and expr.id in names
                or isinstance(expr, ast.Attribute) and expr.attr == "T"
                and whole(expr.value, names))

    names = set()
    for node in ast.walk(func):  # the names bound to pattern.offsets, pairwise in a tuple
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple) else [(target, node.value)])
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and whole(v)}
    return sorted(node.lineno for node in ast.walk(func)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  and (whole(node.left, names) or whole(node.right, names))
                  or isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _PRODUCTS
                  and any(whole(arg, names) for arg in node.args))


def test_whole_offsets_product_is_detected():
    assert _whole_offsets_products(
        "def spiral_search(worlds, pattern, timing):\n"
        "    offsets, got = pattern.offsets, 1.0\n"
        "    moves = offsets @ worlds.basis.T\n"
        "    tcps = worlds.basis @ offsets[ki][:, :, None]\n"
        "    far = np.dot(pattern.offsets, basis.T)\n"
        "    back = basis @ offsets.T\n"
        "    scale = np.abs(offsets).max()\n"
        "def other(pattern):\n"
        "    return pattern.offsets @ basis.T\n", "spiral_search") == [3, 5, 6]


def test_spiral_search_reads_its_moves_from_the_cache():
    # the moves offsets @ basis.T and the path bound's pattern part are kept
    # per (pattern, basis, direction) by sim._pattern_moves: no per-call
    # product over the whole pattern comes back to the search
    source = (_SRC / "sim.py").read_text()
    assert _whole_offsets_products(source, "spiral_search") == []
    assert _calls_of(source, "_pattern_moves")


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
    # multi-job benchmark imports it, when called; hashlib loads OpenSSL, and
    # only a noisy oracle imports it, when called; scipy is never imported
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    code = ("import sys, pegservo; "
            "print(sorted({'scipy', 'concurrent.futures', 'hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
