"""The vectorized spiral_insert against the per-offset loop it replaced, and
the batched spiral_search against its batches of one."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attempt_insertion
from pegservo.bench import _BLOCK
from pegservo.errors import ConstraintViolation
from pegservo.geometry import inplane_component, vec3
from pegservo.search import generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                          move_tcp, new_world, peg_position, spiral_insert,
                          spiral_search)

TIMING = TimingModel()


def reference_spiral(world, start_tcp, pattern, timing):
    """The original loop: one move_tcp and one attempt per offset.

    Returns (success, attempts, time_s, retrospective_error_mm).
    """
    start_tcp = np.asarray(start_tcp, dtype=float)
    move_tcp(world, start_tcp)
    success = False
    attempts = 0
    final = start_tcp
    for off in pattern.offsets:
        tcp_k = start_tcp + world.basis @ off
        move_tcp(world, tcp_k)
        attempts += 1
        if attempt_insertion(world, tcp_k):
            success = True
            final = tcp_k
            break
    t = attempts * timing.t_attempt
    if not success:
        move_tcp(world, start_tcp)
        return False, attempts, t, float("nan")
    retro = np.linalg.norm(inplane_component(final - start_tcp,
                                             world.config.insertion_direction))
    return True, attempts, t, float(retro)


def _direction(tilt, azimuth):
    return vec3(math.sin(tilt) * math.cos(azimuth),
                math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))


def _assert_same(cfg, start_coeffs, pattern):
    """Run both implementations on twin worlds and compare everything."""
    worlds = [new_world(cfg), new_world(cfg)]
    start = worlds[0].tcp + worlds[0].basis @ np.asarray(start_coeffs, dtype=float)
    success, attempts, time_s, retro = reference_spiral(worlds[0], start,
                                                        pattern, TIMING)
    new = spiral_insert(worlds[1], start, pattern, TIMING)
    w_ref, w_new = worlds
    assert new.success == success
    assert new.attempts == attempts
    assert new.time_s == time_s
    assert w_new.tcp.tobytes() == w_ref.tcp.tobytes()
    assert repr(new.retrospective_error_mm) == repr(retro)
    return new


worlds = st.fixed_dictionaries({
    "tolerance": st.floats(0.05, 0.3),
    "radius": st.floats(0.0, 1.5),
    "seed": st.integers(0, 2**32 - 1),
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
    "azimuth": st.floats(0.0, 2.0 * math.pi),
    # far from the origin the rounding of the confirmation grows with the
    # coordinates, which the screen's slack must cover
    "nominal": st.one_of(st.just((0.0, 0.0, 0.0)),
                         st.tuples(*[st.floats(-5000.0, 5000.0)] * 3)),
})


def _config(w):
    return WorldConfig(tolerance=w["tolerance"], seed=w["seed"],
                       insertion_direction=_direction(w["tilt"], w["azimuth"]),
                       nominal_hole=np.array(w["nominal"]))


@settings(max_examples=150, deadline=None)
@given(w=worlds, start_r=st.floats(0.0, 2.0), start_theta=st.floats(0.0, 2.0 * math.pi))
def test_matches_reference_from_random_starts(w, start_r, start_theta):
    pattern = generate_pattern(w["tolerance"], w["radius"])
    _assert_same(_config(w), [start_r * math.cos(start_theta),
                              start_r * math.sin(start_theta)], pattern)


@settings(max_examples=150, deadline=None)
@given(w=worlds, index=st.integers(0, 10**6), phi=st.floats(0.0, 2.0 * math.pi))
def test_matches_reference_with_an_offset_at_the_tolerance(w, index, phi):
    # Place the start so that one offset lies exactly tolerance from the hole,
    # where the screen's rounding and the exact check can disagree.
    cfg = _config(w)
    pattern = generate_pattern(cfg.tolerance, w["radius"])
    world = new_world(cfg)
    off = pattern.offsets[index % len(pattern)]
    miss = world.basis.T @ (world.true_hole - peg_position(world))
    start = miss - off - cfg.tolerance * np.array([math.cos(phi), math.sin(phi)])
    _assert_same(cfg, start, pattern)


def test_boundary_offset_is_hit_or_skipped_like_the_reference():
    # On the default world a start exactly one tolerance from the hole makes
    # the first offset a boundary case; the outcome must follow the loop.
    cfg = WorldConfig(seed=3)
    pattern = generate_pattern(cfg.tolerance, 1.0)
    world = new_world(cfg)
    miss = world.basis.T @ (world.true_hole - peg_position(world))
    attempts = set()
    for phi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        out = _assert_same(cfg, miss - cfg.tolerance * np.array([math.cos(phi),
                                                                 math.sin(phi)]), pattern)
        attempts.add(out.attempts)
    # rounding puts the boundary offset on both sides of the tolerance here
    assert 1 in attempts and len(attempts) > 1


def test_exhaustion_matches_reference():
    cfg = WorldConfig(seed=9, tolerance=0.1)
    out = _assert_same(cfg, [2.0, -1.0], generate_pattern(0.1, 0.5))
    assert not out.success


def test_non_finite_start_raises_and_leaves_world_unchanged():
    w = new_world(WorldConfig(seed=4))
    before = w.tcp.copy()
    for bad in (np.nan, np.inf):
        with pytest.raises(ConstraintViolation):
            spiral_insert(w, w.tcp + vec3(bad, 0.0, 0.0), generate_pattern(0.1, 1.0),
                          TIMING)
    assert np.array_equal(w.tcp, before)


# ---------------------------------------------------------------- batches


def _assert_batch_is_its_batches_of_one(configs, starts, pattern):
    """spiral_search over twin worlds moved to their starts against one
    spiral_insert per world."""
    batch = [new_world(cfg) for cfg in configs]
    alone = [new_world(cfg) for cfg in configs]
    for world, start in zip(batch, starts, strict=True):
        move_tcp(world, start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # worlds whose tolerance is not the pattern's
        episodes = spiral_search(batch, pattern, TIMING)
        singles = [spiral_insert(w, s, pattern, TIMING) for w, s in zip(alone, starts)]
    assert len(episodes) == len(configs)
    assert repr(episodes) == repr(singles)
    for a, b in zip(batch, alone):
        assert a.tcp.tobytes() == b.tcp.tobytes()
    return episodes


batch_worlds = st.fixed_dictionaries({
    "style": st.sampled_from(COMPONENT_STYLES),
    "tolerance": st.sampled_from([0.05, 0.1, 0.2]),
    "seed": st.integers(0, 2**32 - 1),
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
    "azimuth": st.floats(0.0, 2.0 * math.pi),
    "nominal": st.one_of(st.just((0.0, 0.0, 0.0)),
                         st.tuples(*[st.floats(-5000.0, 5000.0)] * 3)),
    # up to twice the pattern's reach: some starts miss it and fail
    "start_r": st.floats(0.0, 2.0),
    "start_theta": st.floats(0.0, 2.0 * math.pi),
})


@settings(max_examples=40, deadline=None)
@given(data=st.data(), radius=st.sampled_from([0.0, 0.3, 1.0]),
       size=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
def test_batch_equals_its_batches_of_one(data, radius, size):
    ws = data.draw(st.lists(batch_worlds, min_size=size, max_size=size))
    configs = [WorldConfig(component_style=w["style"], tolerance=w["tolerance"],
                           seed=w["seed"],
                           insertion_direction=_direction(w["tilt"], w["azimuth"]),
                           nominal_hole=np.array(w["nominal"])) for w in ws]
    starts = []
    for cfg, w in zip(configs, ws):
        world = new_world(cfg)
        starts.append(world.tcp + world.basis @ (w["start_r"] * np.array(
            [math.cos(w["start_theta"]), math.sin(w["start_theta"])])))
    _assert_batch_is_its_batches_of_one(configs, starts, generate_pattern(0.1, radius))


def test_batch_with_candidates_that_fail_confirmation():
    # Starts exactly one tolerance from the hole make the first offset a
    # boundary case: it always passes the screen, and rounding sends its
    # confirmation either way, so some worlds hit on a later offset.
    cfg = WorldConfig(seed=3)
    pattern = generate_pattern(cfg.tolerance, 1.0)
    world = new_world(cfg)
    miss = world.basis.T @ (world.true_hole - peg_position(world))
    starts = [world.tcp + world.basis @ (miss - cfg.tolerance * np.array(
        [math.cos(phi), math.sin(phi)]))
              for phi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)]
    episodes = _assert_batch_is_its_batches_of_one([cfg] * len(starts), starts, pattern)
    attempts = {e.attempts for e in episodes}
    assert 1 in attempts and len(attempts) > 1
