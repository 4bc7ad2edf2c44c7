"""README's fact lists against the code: the seeded-stream table, the columns
of rows.csv and the bench artifacts."""

import hashlib
import math
import pathlib
import re
import sys
from dataclasses import fields

import numpy as np
import pytest

from conftest import synthetic_dataset
from pegservo import cli, streams
from pegservo.bench import BenchConfig, run_benchmark
from pegservo.errors import InvalidConfig
from pegservo.perception import OracleModel, TrainConfig, predict_views, save_model, train
from pegservo.pipeline import CollectionConfig, collect_dataset, split_by_insertion
from pegservo.sim import (COMPONENT_STYLES, Episode, WorldConfig, new_world, new_worlds,
                          render_views)

_README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
_KERNEL = ("seed_states", "keyed_generators", "keyed_uniforms")


def _stream_rows(readme=_README) -> list:
    """README's stream table: per row (stream, call site, kernel, key, collides with),
    backticks dropped."""
    section = readme.split("## Seeded streams")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("|")][2:]
    return [[cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
            for line in lines]


def _layout(key: str) -> list:
    """A key column's tokens: an integer, a name, or *name for a spread list."""
    assert key[0] == "[" and key[-1] == "]", key
    return [int(token) if token.isdigit() else token for token in key[1:-1].split(", ")]


def _key(layout: list, env: dict) -> list:
    """The key a layout gives under env, which binds each of its names."""
    key = []
    for token in layout:
        if isinstance(token, int):
            key.append(token)
        elif token[0] == "*":
            key.extend(env[token[1:]])
        else:
            key.append(env[token])
    return key


def _recorder(name: str, calls: list):
    """The kernel function name, appending (call site, name, keys as int lists) to calls."""
    kernel = getattr(streams, name)

    def record(keys, *args):
        caller = sys._getframe(1)  # the call site
        module = caller.f_globals["__name__"].removeprefix("pegservo.")
        site = f"{module}.{caller.f_code.co_name}"
        calls.append((site, name, [[int(v) for v in key] for key in keys]))
        return kernel(keys, *args)

    return record


# Each stream's call site, run on small inputs: it returns, per key it should draw
# in order, the values of the names in the stream's key layout.

def _world_scene(tmp_path):
    new_worlds(WorldConfig(), [3, 8])
    return [{"seed": 3}, {"seed": 8}]


def _collection(tmp_path):
    data = collect_dataset(lambda i: new_world(WorldConfig(seed=5 + i)),
                           CollectionConfig(n_insertions=2, samples_per_insertion=1,
                                            train_insertions=1))
    return [{"seed": 5 + i} for i in data.grouping]


def _render_noise(tmp_path):
    worlds = new_worlds(WorldConfig(), [4, 9])
    tcps = worlds.tcp + [[0.1, 0.0, 0.0], [0.0, -0.2, 0.0]]
    render_views(worlds, tcps)
    return [{"seed": seed, "camera": j, "tcp bits": tcp.view(np.uint64).tolist()}
            for seed, tcp in zip([4, 9], tcps) for j in range(2)]


def _grid(tmp_path):
    run_benchmark(BenchConfig(component_styles=("led", "dsub"), insertions_per_style_per_mode=2,
                              modes=("novs",), seed=12), {})
    return [{"bench seed": 12, "style index": s, "insertion": i}
            for s in range(2) for i in range(2)]


def _split(tmp_path):
    split_by_insertion(synthetic_dataset(3, 1, 4, lambda x, rng: 0.0), 1, seed=4)
    return [{"train seed": 4, "insertion groups": 3}]


def _mlp_initialisation(tmp_path):
    data = synthetic_dataset(2, 2, 4, lambda x, rng: x[0])
    train(data.subset([0]), data.subset([1]),
          TrainConfig(kind="mlp", hidden=(2,), max_epochs=1, seed=6))
    return [{"train seed": 6}]


def _servo_angle(tmp_path):
    for j in range(2):
        save_model(OracleModel(), str(tmp_path / "models" / f"cam{j}"))
    assert cli.main(["servo", "--models", str(tmp_path / "models"), "--seed", "7",
                     "--error", "0.5", "--n-iters", "1", "--out", str(tmp_path / "out")]) == 0
    return [{"seed": 7}]


def _noisy_oracle(tmp_path):
    images = np.random.default_rng(0).random((2, 4, 4), dtype=np.float32)
    truth_y = np.array([0.25, -0.5])
    predict_views(OracleModel(noise_sigma=0.1), images, truth_y)
    return [{"view hash": int(hashlib.blake2b(img.tobytes() + np.float64(t).tobytes(),
                                              digest_size=16).hexdigest(), 16)}
            for img, t in zip(images, truth_y)]


_RUNS = {"world scene": _world_scene, "collection": _collection, "render noise": _render_noise,
         "row seed": _grid, "start error": _grid, "train/validation split": _split,
         "MLP initialisation": _mlp_initialisation, "servo --error angle": _servo_angle,
         "noisy oracle": _noisy_oracle}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Per stream, the kernel calls its run made, and the names' values of each key
    it should draw. Every pegservo module that imports a kernel function gets the
    recording one."""
    calls, out = [], {}
    with pytest.MonkeyPatch.context() as patch:
        for module in [m for name, m in sys.modules.items() if name.startswith("pegservo.")]:
            for name in _KERNEL:
                if module is not streams and getattr(module, name, None) is getattr(streams, name):
                    patch.setattr(module, name, _recorder(name, calls))
        for stream, run in _RUNS.items():
            calls.clear()
            envs = run(tmp_path_factory.mktemp("streams"))
            out[stream] = (list(calls), envs)
    return out


def _stream_mismatches(rows, recorded) -> list:
    """Each row whose call site did not draw, through its kernel, exactly its layout's
    keys, and each (call site, kernel) that drew and no row names."""
    bad = []
    for stream, site, kernel, key, _ in rows:
        calls, envs = recorded[stream]
        drawn = [k for at, used, keys in calls if (at, used) == (site, kernel) for k in keys]
        if drawn != [_key(_layout(key), env) for env in envs]:
            bad.append(f"{stream}: {site} drew {drawn} through {kernel}")
    named = {(site, kernel) for _, site, kernel, _, _ in rows}
    bad += sorted({f"{at} draws through {used}, and no row says so"
                   for calls, _ in recorded.values() for at, used, _ in calls
                   if (at, used) not in named})
    return bad


def test_every_stream_row_is_what_its_call_site_draws(recorded):
    rows = _stream_rows()
    assert [row[0] for row in rows] == list(_RUNS)
    assert _stream_mismatches(rows, recorded) == []


def test_a_drifted_stream_row_is_detected(recorded):
    drifted = _stream_rows(_README.replace("| `keyed_generators` | `[seed, 99]`",
                                           "| `keyed_uniforms` | `[seed, 99]`"))
    assert _stream_mismatches(drifted, recorded) == [
        "servo --error angle: cli.cmd_servo drew [] through keyed_uniforms",
        "cli.cmd_servo draws through keyed_generators, and no row says so"]
    rekeyed = _stream_rows(_README.replace("`[train seed, 2]`", "`[train seed, 3]`"))
    assert _stream_mismatches(rekeyed, recorded) == [
        "MLP initialisation: perception._mlp_init drew [[6, 2]] through keyed_generators"]


# What each name of a key layout can be, lowest and highest, and a spread's length.
# A split has more insertion groups than its training insertions, at least one.
_DOMAINS = {"seed": (0, math.inf), "camera": (0, math.inf), "tcp bits": (0, 2**64 - 1),
            "bench seed": (0, math.inf), "style index": (0, len(COMPONENT_STYLES) - 1),
            "insertion": (0, math.inf), "train seed": (0, math.inf),
            "insertion groups": (2, math.inf), "view hash": (0, 2**128 - 1)}
_SPREADS = {"tcp bits": 3}


def _ranges(key: str) -> list:
    """Per integer of a layout's keys, its lowest and highest value."""
    env = _DOMAINS | {name: [_DOMAINS[name]] * n for name, n in _SPREADS.items()}
    return [(v, v) if isinstance(v, int) else v for v in _key(_layout(key), env)]


def _can_coincide(a: str, b: str) -> bool:
    """Whether some values of the two layouts' names give the same list of integers."""
    ra, rb = _ranges(a), _ranges(b)
    return len(ra) == len(rb) and all(max(la, lb) <= min(ha, hb)
                                      for (la, ha), (lb, hb) in zip(ra, rb))


def test_only_the_known_streams_can_share_a_key():
    rows = _stream_rows()
    pairs = {frozenset((a[0], b[0])) for i, a in enumerate(rows) for b in rows[i + 1:]
             if _can_coincide(a[3], b[3])}
    # a two-group split draws the MLP initialisation's stream; re-keying either
    # moves the MLP goldens. A 99-group split meets servo --error, never in one run.
    assert pairs == {frozenset(("train/validation split", "MLP initialisation")),
                     frozenset(("train/validation split", "servo --error angle"))}
    for stream, *_, collides in rows:
        assert {name for name in collides.split(", ") if name} == {
            other for pair in pairs if stream in pair for other in pair - {stream}}, stream
    assert _can_coincide("[seed, camera, *tcp bits]", "[seed, 0, 0, 0, 1]")
    assert not _can_coincide("[style index]", "[5]")
    with pytest.raises(InvalidConfig, match="train_insertions"):  # so at least two groups
        split_by_insertion(synthetic_dataset(1, 1, 4, lambda x, rng: 0.0), 0, seed=0)


def _listed(marker: str) -> list:
    """The backticked names between the colon and the first full stop of README's
    bullet that starts with marker."""
    [item] = [block for block in re.split(r"\n(?=- )|\n\n", _README) if block.startswith(marker)]
    return re.findall(r"`([^`]+)`", re.split(r"\.\s", item.split(":", 1)[1])[0])


def test_readme_lists_the_rows_csv_columns_in_order():
    assert _listed("- **rows.csv**") == [f.name for f in fields(Episode)]


def test_readme_lists_the_bench_artifacts():
    assert _listed("- **bench artifacts**") == cli._BENCH_OUTPUTS
