"""The batched servo loop: a block of worlds servoed in lockstep gives each
world exactly what inserting it alone gives."""

import math

import numpy as np
import pytest

import pegservo.servoing
from conftest import RIDGE_HYPER
from pegservo.errors import InvalidConfig, NonFinitePrediction
from pegservo.perception import InputSpec, OracleModel, RidgeModel
from pegservo.pipeline import (CollectionConfig, collect_dataset, insert,
                               insert_batch, train_per_camera)
from pegservo.search import generate_pattern
from pegservo.servoing import ServoConfig, servo_config_for, visual_servo
from pegservo.sim import (TimingModel, WorldConfig, Worlds, move_tcp, move_tcps, new_world,
                          new_worlds, render_views, spiral_search)

PATTERN, TIMING = generate_pattern(0.1, 1.0), TimingModel()
NOISY = (OracleModel(noise_sigma=0.01), OracleModel(noise_sigma=0.01))


@pytest.fixture(scope="module")
def models(led_ridge):
    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=30, train_insertions=2)
    data = collect_dataset(
        lambda i: new_world(WorldConfig(component_style="pin_header", seed=2000 + i)),
        cfg, generate_pattern(0.1, cfg.max_offset_mag))
    pin = train_per_camera(data, cfg.train_insertions, RIDGE_HYPER).models
    return {"led": (led_ridge[0][0], led_ridge[1][0]), "pin": (pin[0], pin[1]),
            "noisy": NOISY}


def _start(style, seed):
    """A fresh world, its TCP moved up to 1 mm off its approach pose."""
    world = new_world(WorldConfig(component_style=style, seed=seed))
    off = (seed % 7) / 7.0 * np.array([math.cos(seed), math.sin(seed)])
    move_tcp(world, world.tcp + world.basis @ off)
    return world


# A batch is one style: (style, models of its servoed rows or None, n_iters,
# [(seed, servoed), ...]); its worlds are built one config per seed, as a
# per-index factory builds them, and joined into one block
BATCHES = [("led", "led", 3, [(11, True), (13, False), (16, True), (18, True)]),
           ("pin_header", "pin", 5, [(12, True), (15, True), (20, False)]),
           ("dsub", "noisy", 1, [(14, True), (21, False), (22, True)]),
           ("cap_small", None, 3, [(17, False)]),
           ("pin_header", "led", 3, [(19, True), (23, False)]),
           ("led", "noisy", 3, [(18, True), (24, True)])]


def _block(models, batch):
    style, key, n_iters, rows = batch
    worlds = (Worlds.join([_start(style, seed) for seed, _ in rows]) if rows
              else new_worlds(WorldConfig(component_style=style), []))
    calibration = WorldConfig(component_style=style)
    cfg = None if key is None else ServoConfig(models[key], calibration, n_iters=n_iters)
    return worlds, cfg, [servoed for _, servoed in rows]


def _assert_each_world_gives_what_it_gives_alone(models, batch):
    worlds, cfg, servoed = _block(models, batch)
    episodes = insert_batch(worlds, cfg, servoed, PATTERN, TIMING)
    assert len(episodes) == len(worlds)
    assert [e.mode for e in episodes] == ["vs" if s else "novs" for s in servoed]
    style, key, n_iters, rows = batch
    for k, episode in enumerate(episodes):
        alone, alone_cfg, (servo,) = _block(models, (style, key, n_iters, rows[k:k + 1]))
        mode = "servo_then_spiral" if servo else "spiral_only"
        assert repr(insert(alone, mode, alone_cfg, PATTERN, TIMING)) == repr(episode)
        assert worlds.tcp[k].tobytes() == alone.tcp.tobytes()


def test_block_episodes_equal_each_world_inserted_alone(models):
    for batch in BATCHES:
        _assert_each_world_gives_what_it_gives_alone(models, batch)


@pytest.mark.parametrize("rows", [[], [(11, False), (13, False), (16, False)],
                                  [(11, True), (13, True), (16, True)]],
                         ids=["empty", "all-novs", "all-vs"])
def test_a_one_mode_block_gives_each_world_what_it_gives_alone(models, rows):
    _assert_each_world_gives_what_it_gives_alone(models, ("led", "led", 3, rows))
    _assert_each_world_gives_what_it_gives_alone(models, ("led", "noisy", 3, rows))


def test_block_renders_once_and_predicts_once_per_model_per_iteration(models, monkeypatch):
    # a block has one ServoConfig, so one model per camera; one render draws
    # every camera's view of every world
    counts = {"render_views": 0, "predict_views": 0}
    for name in counts:
        def counted(*args, real=getattr(pegservo.servoing, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(pegservo.servoing, name, counted)
    worlds, cfg, servoed = _block(models, BATCHES[0])
    insert_batch(worlds, cfg, servoed, PATTERN, TIMING)
    assert counts == {"render_views": 3, "predict_views": 3 * 2}


def test_a_nan_prediction_fails_its_block_and_leaves_its_world_unmoved(models):
    r = 64
    nan_model = RidgeModel(weights=np.zeros(r * r), bias=float("nan"), lam=1.0,
                           spec=InputSpec(r=r, robust=False, feat_mean=np.zeros(r * r),
                                          feat_std=np.ones(r * r)))
    worlds, cfg, servoed = _block({**models, "nan": (nan_model, nan_model)},
                                  ("dsub", "nan", 3, [(21, True), (22, True), (23, False)]))
    starts = worlds.tcp.copy()
    with pytest.raises(NonFinitePrediction, match=r"^camera 0 predicted nan for seed 21$"):
        insert_batch(worlds, cfg, servoed, PATTERN, TIMING)
    assert worlds.tcp.tobytes() == starts.tobytes()


def test_a_mixed_batch_is_refused_before_any_world_moves():
    # a block is one WorldConfig: joining worlds of two styles raises
    # InvalidConfig, naming the first world whose config differs, and no TCP moves
    worlds = [_start("led", 31), _start("led", 32), _start("dsub", 33)]
    starts = [w.tcp.copy() for w in worlds]
    with pytest.raises(InvalidConfig, match="^world 2's config differs from world 0's"):
        Worlds.join(worlds)
    assert [w.tcp.tobytes() for w in worlds] == [s.tobytes() for s in starts]
    # worlds whose configs differ only in seed, as a per-index factory builds
    # them, are one block, which every batched call takes
    assert worlds[0].config is not worlds[1].config
    led = Worlds.join(worlds[:2])
    tcps = led.tcp.copy()
    cfg = servo_config_for(led, NOISY)
    render_views(led, tcps)
    move_tcps(led, tcps + led.basis @ np.array([0.1, 0.1]))
    visual_servo(led, cfg)
    assert len(insert_batch(led, cfg, [True, False], PATTERN, TIMING)) == 2
    assert len(spiral_search(led, PATTERN, TIMING)) == 2
