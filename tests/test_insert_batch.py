"""The batched servo loop: a block of worlds servoed in lockstep gives each
world exactly what inserting it alone gives."""

import math

import numpy as np
import pytest

import pegservo.servoing
from conftest import RIDGE_HYPER
from pegservo.errors import ConstraintViolation
from pegservo.perception import InputSpec, OracleModel, RidgeModel
from pegservo.pipeline import (CollectionConfig, collect_dataset, insert,
                               insert_batch, train_per_camera)
from pegservo.search import generate_pattern
from pegservo.servoing import servo_config_for
from pegservo.sim import TimingModel, WorldConfig, move_tcp, new_world

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


# (style, seed, models or None for search only, n_iters)
BLOCK = [("led", 11, "led", 3), ("pin_header", 12, "pin", 3), ("led", 13, None, 3),
         ("dsub", 14, "noisy", 1), ("pin_header", 15, "pin", 5), ("led", 16, "led", 1),
         ("cap_small", 17, None, 3), ("led", 18, "noisy", 3), ("pin_header", 19, "led", 3)]


def _block(models, block):
    worlds = [_start(style, seed) for style, seed, _, _ in block]
    cfgs = [None if key is None else servo_config_for(w, models[key], n_iters=n)
            for w, (_, _, key, n) in zip(worlds, block)]
    return worlds, cfgs


def test_block_episodes_equal_each_world_inserted_alone(models):
    worlds, cfgs = _block(models, BLOCK)
    episodes = insert_batch(worlds, cfgs, PATTERN, TIMING)
    assert [e.mode for e in episodes] == ["novs" if c is None else "vs" for c in cfgs]
    for k, (world, episode) in enumerate(zip(worlds, episodes)):
        (alone,), (cfg,) = _block(models, BLOCK[k:k + 1])
        mode = "spiral_only" if cfg is None else "servo_then_spiral"
        assert repr(insert(alone, mode, cfg, PATTERN, TIMING)) == repr(episode)
        assert world.tcp.tobytes() == alone.tcp.tobytes()


@pytest.mark.parametrize("keys", [[], [None, None, None], ["led", "pin", "noisy"]],
                         ids=["empty", "all-novs", "all-vs"])
def test_a_one_mode_block_gives_each_world_what_it_gives_alone(models, keys):
    block = [(style, seed, key, 3) for (style, seed, _, _), key in zip(BLOCK, keys)]
    worlds, cfgs = _block(models, block)
    episodes = insert_batch(worlds, cfgs, PATTERN, TIMING)
    assert len(episodes) == len(block)
    for k, (world, episode) in enumerate(zip(worlds, episodes)):
        (alone,), (cfg,) = _block(models, block[k:k + 1])
        mode = "spiral_only" if cfg is None else "servo_then_spiral"
        assert repr(insert(alone, mode, cfg, PATTERN, TIMING)) == repr(episode)
        assert world.tcp.tobytes() == alone.tcp.tobytes()


def test_block_renders_and_predicts_once_per_camera_and_model_per_iteration(
        models, monkeypatch):
    counts = {"render_views": 0, "predict_views": 0}
    for name in counts:
        def counted(*args, real=getattr(pegservo.servoing, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(pegservo.servoing, name, counted)
    block = [(style, seed, key, 3) for style, seed, key, _ in BLOCK]
    worlds, cfgs = _block(models, block)
    insert_batch(worlds, cfgs, PATTERN, TIMING)
    n_models = len({key for _, _, key, _ in block if key is not None})
    assert counts == {"render_views": 3 * 2, "predict_views": 3 * 2 * n_models}


def test_a_nan_prediction_fails_its_block_and_leaves_its_world_unmoved(models):
    r = 64
    nan_model = RidgeModel(weights=np.zeros(r * r), bias=float("nan"), lam=1.0,
                           spec=InputSpec(r=r, robust=False, feat_mean=np.zeros(r * r),
                                          feat_std=np.ones(r * r)))
    worlds, cfgs = _block({**models, "nan": (nan_model, nan_model)},
                          [("led", 21, "led", 3), ("dsub", 22, "nan", 3),
                           ("led", 23, None, 3)])
    start = worlds[1].tcp.copy()
    with pytest.raises(ConstraintViolation):
        insert_batch(worlds, cfgs, PATTERN, TIMING)
    assert worlds[1].tcp.tobytes() == start.tobytes()
