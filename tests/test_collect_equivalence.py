"""The array draw of collect_dataset against the per-sample loop it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pegservo.pipeline
from pegservo.geometry import normalize_error, scalar_error, vec3
from pegservo.pipeline import CollectionConfig, collect_dataset
from pegservo.search import generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                          new_world, render_views, spiral_insert)


def reference_collect(world_factory, cfg, pattern):
    """The original loop: three scalar uniform draws, two mat-vecs and one
    label tuple per camera for every sample (its TCP moves, which render
    does not read, left out).

    Returns (the TCPs of each successful insertion, the label columns
    insertion_id, camera_index, y, truth_y, q_mm, height_mm, the images).
    """
    cameras = world_factory(0).config.cameras
    images, labels, all_tcps = [], [], []
    timing = TimingModel()
    for i in range(cfg.n_insertions):
        world = world_factory(i)
        if not spiral_insert(world, world.tcp, pattern, timing).success:
            continue
        success_tcp, first, tcps = world.tcp, len(labels), []
        l = world.config.insertion_direction
        rng = np.random.default_rng(np.random.SeedSequence([world.config.seed, 1]))
        for _ in range(cfg.samples_per_insertion):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            mag = rng.uniform(0.0, cfg.max_offset_mag)
            height = rng.uniform(0.0, cfg.max_height)
            offset2 = mag * np.array([np.cos(theta), np.sin(theta)])
            tcps.append(success_tcp + world.basis @ offset2 - height * l)
            for j, (cam, u) in enumerate(zip(cameras,
                                             world.config.error_directions)):
                q = scalar_error(-(world.basis @ offset2), u)
                labels.append([i, j, normalize_error(q, cam), np.nan, q, height])
                images.append(None)
        pixels, truth_y = render_views([world], np.array(tcps))
        for s in range(len(tcps)):
            for j in range(len(cameras)):
                row = first + s * len(cameras) + j
                images[row], labels[row][3] = pixels[s, j], truth_y[s, j]
        all_tcps.append(np.array(tcps))
    return all_tcps, np.array(labels).T, np.array(images)


@settings(max_examples=60, deadline=None)
@given(style=st.sampled_from(COMPONENT_STYLES),
       seed=st.integers(0, 2**31),
       max_offset_mag=st.one_of(st.sampled_from([0.37, 2.5, 3.0, 1e-3]),
                                st.floats(1e-3, 3.0)),
       max_height=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       samples=st.integers(1, 12),
       n_insertions=st.integers(2, 3),
       failing=st.sets(st.integers(1, 2)),
       tilt=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
       azimuth=st.floats(0.0, 2.0 * math.pi))
def test_collection_matches_the_per_sample_reference(
        style, seed, max_offset_mag, max_height, samples, n_insertions,
        failing, tilt, azimuth):
    l = vec3(math.sin(tilt) * math.cos(azimuth),
             math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))

    def factory(i):
        # a hole moved 10 mm is far outside the 1 mm pattern: that insertion fails
        world = new_world(WorldConfig(component_style=style, seed=seed + i,
                                      insertion_direction=l))
        if i in failing:
            world.true_hole = world.true_hole + 10.0 * world.basis[:, 0]
        return world

    cfg = CollectionConfig(n_insertions=n_insertions, samples_per_insertion=samples,
                           max_offset_mag=max_offset_mag, max_height=max_height,
                           train_insertions=1)
    pattern = generate_pattern(0.1, 1.0)
    calls = []

    def recorded(worlds, tcps):
        [world] = worlds
        calls.append((world.config.seed - seed, np.array(tcps)))
        return render_views(worlds, tcps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pegservo.pipeline, "render_views", recorded)
        data = collect_dataset(factory, cfg, pattern)
    tcps, columns, images = reference_collect(factory, cfg, pattern)

    inserted = sorted({i for i, _ in calls})
    assert [i for i, _ in calls] == inserted  # one scene per inserted world
    assert len(inserted) == len(tcps)
    for (_, got), want in zip(calls, tcps):
        assert got.tobytes() == want.tobytes()
    names = ("insertion_id", "camera_index", "y", "truth_y", "q_mm", "height_mm")
    for name, want in zip(names, columns):
        got = getattr(data, name)
        assert got.tobytes() == want.astype(got.dtype).tobytes(), name
    assert data.pixels().tobytes() == images.tobytes()
