"""The vectorized spiral_insert against the per-offset loop it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.errors import ConstraintViolation
from pegservo.geometry import inplane_component, vec3
from pegservo.search import generate_pattern
from pegservo.sim import (InsertionOutcome, TimingModel, WorldConfig,
                          attempt_insertion, move_tcp, new_world,
                          peg_position, spiral_insert)

TIMING = TimingModel()


def reference_spiral(world, start_tcp, pattern, timing):
    """The original loop: one move_tcp and one attempt per offset."""
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
    world.elapsed_time += t
    if not success:
        move_tcp(world, start_tcp)
        return InsertionOutcome(success=False, attempts=attempts, simulated_time=t,
                                final_tcp=start_tcp,
                                retrospective_error_mm=float("nan"))
    retro = np.linalg.norm(inplane_component(final - start_tcp,
                                             world.config.insertion_direction))
    return InsertionOutcome(success=True, attempts=attempts, simulated_time=t,
                            final_tcp=final, retrospective_error_mm=float(retro))


def _direction(tilt, azimuth):
    return vec3(math.sin(tilt) * math.cos(azimuth),
                math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))


def _assert_same(cfg, start_coeffs, pattern):
    """Run both implementations on twin worlds and compare everything."""
    worlds = [new_world(cfg), new_world(cfg)]
    start = worlds[0].tcp + worlds[0].basis @ np.asarray(start_coeffs, dtype=float)
    ref = reference_spiral(worlds[0], start, pattern, TIMING)
    new = spiral_insert(worlds[1], start, pattern, TIMING)
    w_ref, w_new = worlds
    assert new.success == ref.success
    assert new.attempts == ref.attempts
    assert w_new.attempt_count == w_ref.attempt_count
    assert w_new.elapsed_time == w_ref.elapsed_time
    assert new.simulated_time == ref.simulated_time
    assert new.final_tcp.tobytes() == ref.final_tcp.tobytes()
    assert w_new.tcp.tobytes() == w_ref.tcp.tobytes()
    assert repr(new.retrospective_error_mm) == repr(ref.retrospective_error_mm)
    assert w_new.max_inplane_violation <= 1e-9
    assert abs(w_new.max_inplane_violation - w_ref.max_inplane_violation) <= 1e-9
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
    assert w.attempt_count == 0 and w.elapsed_time == 0.0
