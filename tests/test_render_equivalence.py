"""The bounding-box batch render against the full-frame render it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.errors import ConstraintViolation, InvalidConfig, ShapeMismatch
from pegservo.geometry import (error_direction, inplane_component,
                               normalize_error, project, scalar_error, vec3)
from pegservo.sim import (_GLYPHS, COMPONENT_STYLES, EDGE_WIDTH,
                          HOLE_EDGE_WIDTH, HOLE_INTENSITY, NOISE_SIGMA,
                          WorldConfig, default_cameras, new_world,
                          render, render_views)


def reference_render(world, camera_index, tcp):
    """The original render: every disc composited over the whole frame, the
    error direction and the nominal projection recomputed per view.

    Returns (pixels, truth_y).
    """
    cfg = world.config
    cam = cfg.cameras[camera_index]
    tcp = np.asarray(tcp, dtype=float)
    peg = tcp + world.basis @ world.grasp_offset

    nominal_px = np.array(project(cam, world.nominal_hole))
    shift = np.array([cam.r / 2.0, cam.r / 2.0]) - nominal_px
    hole_px = np.array(project(cam, world.true_hole)) + shift
    peg_px = np.array(project(cam, peg)) + shift

    app = world.appearance
    grid = np.arange(cam.r, dtype=float)
    X, Y = np.meshgrid(grid, grid)
    discs = [(hole_px[0], hole_px[1], app.hole_radius_px, HOLE_EDGE_WIDTH,
              HOLE_INTENSITY)]
    if cfg.peg_intensity is not None:
        discs += [(peg_px[0] + du, peg_px[1] + dv, rad, EDGE_WIDTH,
                   cfg.peg_intensity if i is None else i)
                  for du, dv, rad, i in _GLYPHS[cfg.component_style]]
    img = np.full((cam.r, cam.r), app.background)
    for cx, cy, rad, edge, intensity in discs:
        cov = np.clip((rad - np.hypot(X - cx, Y - cy)) / edge + 0.5, 0.0, 1.0)
        img = img * (1.0 - cov) + intensity * cov

    bits = tcp.view(np.uint64)
    noise_rng = np.random.default_rng(np.random.SeedSequence(
        [world.config.seed, camera_index, int(bits[0]), int(bits[1]), int(bits[2])]))
    img = np.clip(img + NOISE_SIGMA * noise_rng.standard_normal(img.shape), 0.0, 1.0)

    u = error_direction(cfg.insertion_direction, world.nominal_hole - cam.position)
    e = inplane_component(world.true_hole - peg, cfg.insertion_direction)
    return img.astype(np.float32), float(normalize_error(scalar_error(e, u), cam))


def _direction(tilt, azimuth):
    return vec3(math.sin(tilt) * math.cos(azimuth),
                math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))


scenes = st.fixed_dictionaries({
    "style": st.sampled_from(COMPONENT_STYLES),
    "peg_intensity": st.one_of(st.none(), st.sampled_from([0.9, 0.3]),
                               st.floats(0.0, 1.0)),
    "r": st.one_of(st.sampled_from([1, 64]), st.integers(2, 97)),
    # from f = 300 up, 1.5 crop widths keep the peg in front of the cameras
    "f": st.one_of(st.sampled_from([300.0, 1000.0, 4000.0]),
                   st.floats(300.0, 5000.0)),
    "seed": st.integers(0, 2**32 - 1),
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
    "azimuth": st.floats(0.0, 2.0 * math.pi),
})

# Poses as (in-plane offset in crop widths, its direction, height in mm):
# an offset of 0.5-1.5 crop widths carries the peg across the border and
# past it, at any resolution and focal length.
poses = st.tuples(st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 1.5)),
                  st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(scene=scenes, pose_list=st.lists(poses, min_size=1, max_size=8))
def test_render_matches_the_full_frame_reference(scene, pose_list):
    # one batch mixes poses whose glyph is on the image, crosses its border
    # and misses it; every row must be the reference's view of its pose
    l = _direction(scene["tilt"], scene["azimuth"])
    cfg = WorldConfig(component_style=scene["style"],
                      peg_intensity=scene["peg_intensity"], seed=scene["seed"],
                      insertion_direction=l,
                      cameras=default_cameras(vec3(0.0, 0.0, 0.0), l,
                                              f=scene["f"], r=scene["r"]))
    world = new_world(cfg)
    cam = cfg.cameras[0]
    crop_mm = (cam.r + 20) * cam.z / cam.f  # crop plus a glyph, in mm
    tcps = np.array([world.tcp - height * l + world.basis
                     @ (widths * crop_mm * np.array([math.cos(theta), math.sin(theta)]))
                     for widths, theta, height in pose_list])
    # one scene: every (view, camera) pair of one render_views call
    batch, batch_truth = render_views([world], tcps)
    m = len(cfg.cameras)
    assert batch.shape == (len(tcps), m, cam.r, cam.r) and batch.dtype == np.float32
    assert batch_truth.shape == (len(tcps), m)
    for k, tcp in enumerate(tcps):
        for j in range(m):
            pixels, truth_y = reference_render(world, j, tcp)
            obs = render(world, j, tcp)
            assert batch[k, j].tobytes() == obs.pixels.tobytes() == pixels.tobytes()
            assert repr(float(batch_truth[k, j])) == repr(obs.truth_y) == repr(truth_y)


def test_render_views_takes_n_by_3_tcps():
    world = new_world(WorldConfig(seed=2))
    pixels, truth_y = render_views([world], np.empty((0, 3)))
    assert pixels.shape == (0, 2, 64, 64) and truth_y.shape == (0, 2)
    with pytest.raises(ShapeMismatch):
        render_views([world], world.tcp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_render_rejects_a_non_finite_tcp(bad):
    world = new_world(WorldConfig(seed=2))
    with pytest.raises(ConstraintViolation):
        render(world, 0, world.tcp + vec3(bad, 0.0, 0.0))


# a world of any style and seed, with or without its peg marking, and a pose
# within 2 mm of its approach or up to 50 mm off (about 1.5 crop widths at the
# default cameras), which carries the glyph across the border and past it
world_views = st.tuples(st.sampled_from(COMPONENT_STYLES), st.integers(0, 2**32 - 1),
                        st.sampled_from([None, 0.9]),
                        st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 50.0)),
                        st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 5.0))


@settings(max_examples=100, deadline=None)
@given(views=st.lists(world_views, min_size=1, max_size=6))
def test_render_views_match_each_world_rendered_alone(views):
    # one batch per config (style and peg marking), its worlds built one
    # config per seed, as a per-index factory builds them
    batches = {}
    for style, seed, peg_intensity, off_mm, theta, height in views:
        world = new_world(WorldConfig(component_style=style, seed=seed,
                                      peg_intensity=peg_intensity))
        tcp = (world.tcp - height * world.config.insertion_direction
               + world.basis @ (off_mm * np.array([math.cos(theta), math.sin(theta)])))
        batches.setdefault((style, peg_intensity), []).append((world, tcp))
    for batch in batches.values():
        worlds, tcps = zip(*batch)
        # one scene: every (view, camera) pair is its world's view rendered alone
        # and the full-frame reference's
        pixels, truth_y = render_views(worlds, np.array(tcps))
        assert pixels.shape == (len(worlds), 2, 64, 64) and pixels.dtype == np.float32
        assert truth_y.shape == (len(worlds), 2)
        for k, (world, tcp) in enumerate(zip(worlds, tcps)):
            for j in range(2):
                obs = render(world, j, tcp)
                ref_pixels, ref_truth_y = reference_render(world, j, tcp)
                assert pixels[k, j].tobytes() == obs.pixels.tobytes() == ref_pixels.tobytes()
                assert repr(float(truth_y[k, j])) == repr(obs.truth_y) == repr(ref_truth_y)


def test_render_views_need_one_resolution_and_one_world_per_view():
    # worlds of two resolutions are two configs: the batch is refused
    world = new_world(WorldConfig(seed=2))
    small = new_world(WorldConfig(seed=3, cameras=default_cameras(vec3(0.0, 0.0, 0.0),
                                                                  vec3(0.0, 0.0, -1.0), r=32)))
    with pytest.raises(InvalidConfig, match="^world 1's config differs from world 0's"):
        render_views([world, small], np.array([world.tcp, small.tcp]))
    with pytest.raises(ShapeMismatch):  # two worlds for three views
        render_views([world, world], np.array([world.tcp] * 3))
    with pytest.raises(ShapeMismatch):
        render_views([], np.empty((0, 3)))
    pixels, truth_y = render_views([small], np.empty((0, 3)))
    assert pixels.shape == (0, 2, 32, 32) and truth_y.shape == (0, 2)
