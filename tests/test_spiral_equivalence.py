"""The vectorized spiral_insert against the per-offset loop it replaced, the
batched spiral_search against its batches of one, and its screens (the ring
band, the path check's rounding bound) against the exhaustive checks."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import attempt_insertion
from pegservo import sim
from pegservo.bench import _BLOCK
from pegservo.errors import ConstraintViolation
from pegservo.geometry import inplane_component, vec3
from pegservo.search import SearchPattern, generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig, Worlds,
                          move_tcp, move_tcps, new_world, new_worlds, peg_position,
                          spiral_insert, spiral_search)

TIMING = TimingModel()


def reference_spiral(world, start_tcp, pattern, timing):
    """The original loop: one move_tcp and one attempt per offset.

    Returns (success, attempts, time_s, retrospective_error_mm).
    """
    start_tcp = np.reshape(start_tcp, 3).astype(float)
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
    miss = world.basis.T @ (world.true_hole - peg_position(world))[0]
    start = miss - off - cfg.tolerance * np.array([math.cos(phi), math.sin(phi)])
    _assert_same(cfg, start, pattern)


def test_boundary_offset_is_hit_or_skipped_like_the_reference():
    # On the default world a start exactly one tolerance from the hole makes
    # the first offset a boundary case; the outcome must follow the loop.
    cfg = WorldConfig(seed=3)
    pattern = generate_pattern(cfg.tolerance, 1.0)
    world = new_world(cfg)
    miss = world.basis.T @ (world.true_hole - peg_position(world))[0]
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


def _joined(configs):
    """The block of each config's world, joined as collect_dataset joins a factory's."""
    return Worlds.join([new_world(cfg) for cfg in configs]) if configs else new_worlds(
        WorldConfig(), [])


def _assert_batch_is_its_batches_of_one(configs, starts, pattern):
    """spiral_search over a block of twin worlds moved to their starts against one
    spiral_insert per world."""
    batch = _joined(configs)
    alone = [new_world(cfg) for cfg in configs]
    move_tcps(batch, np.reshape(starts, (-1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # worlds whose tolerance is not the pattern's
        episodes = spiral_search(batch, pattern, TIMING)
        singles = [spiral_insert(w, s, pattern, TIMING) for w, s in zip(alone, starts)]
    assert len(episodes) == len(configs)
    assert repr(episodes) == repr(singles)
    assert batch.tcp.tobytes() == b"".join(b.tcp.tobytes() for b in alone)
    return episodes


batch_configs = st.fixed_dictionaries({
    "style": st.sampled_from(COMPONENT_STYLES),
    "tolerance": st.sampled_from([0.05, 0.1, 0.2]),
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 0.7)),
    "azimuth": st.floats(0.0, 2.0 * math.pi),
    "nominal": st.one_of(st.just((0.0, 0.0, 0.0)),
                         st.tuples(*[st.floats(-5000.0, 5000.0)] * 3)),
})
batch_worlds = st.fixed_dictionaries({
    "config": st.integers(0, 1),  # which of the example's configs
    "seed": st.integers(0, 2**32 - 1),
    # up to twice the pattern's reach: some starts miss it and fail
    "start_r": st.floats(0.0, 2.0),
    "start_theta": st.floats(0.0, 2.0 * math.pi),
})


@settings(max_examples=40, deadline=None)
@given(data=st.data(), radius=st.sampled_from([0.0, 0.3, 1.0]),
       size=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]))
def test_batch_equals_its_batches_of_one(data, radius, size):
    # the rows of two configs, one batch per config, each world built by a
    # config of its own seed, as a per-index factory builds them
    shared = data.draw(st.lists(batch_configs, min_size=2, max_size=2))
    ws = data.draw(st.lists(batch_worlds, min_size=size, max_size=size))
    for index, c in enumerate(shared):
        rows = [w for w in ws if w["config"] == index]
        configs = [WorldConfig(component_style=c["style"], tolerance=c["tolerance"],
                               seed=w["seed"], insertion_direction=_direction(c["tilt"],
                                                                             c["azimuth"]),
                               nominal_hole=np.array(c["nominal"])) for w in rows]
        starts = []
        for cfg, w in zip(configs, rows):
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
    miss = world.basis.T @ (world.true_hole - peg_position(world))[0]
    starts = [world.tcp + world.basis @ (miss - cfg.tolerance * np.array(
        [math.cos(phi), math.sin(phi)]))
              for phi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)]
    episodes = _assert_batch_is_its_batches_of_one([cfg] * len(starts), starts, pattern)
    attempts = {e.attempts for e in episodes}
    assert 1 in attempts and len(attempts) > 1


# ---------------------------------------------------------------- screens


def _exact_path_message(worlds, starts, episodes, pattern):
    """The per-world path check spiral_search ran on every world of a block before its
    rounding bound: the first failing world's message, in batch order, or None."""
    for start, e in zip(starts, episodes):
        moves = pattern.offsets @ worlds.basis.T
        path = np.concatenate((start[None, :], start + moves[:e.attempts])
                              + (() if e.success else (start[None, :],)))
        worst = float(np.abs((path[1:] - path[:-1])
                             @ worlds.config.insertion_direction).max(initial=0.0))
        if not worst <= 1e-9:
            return f"TCP move has out-of-plane component {worst:.3e} mm"
    return None


far_configs = st.fixed_dictionaries({
    "log_radius": st.floats(0.0, 8.0),
    "azimuth": st.floats(0.0, 2.0 * math.pi),
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 1.2)),
    "heading": st.floats(0.0, 2.0 * math.pi),
})
far_worlds = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "start": st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    "hit": st.booleans(),  # else the hole is moved out of the pattern's reach
})
# the 3e7 mm world on a 0.5 rad tilt whose spiral rounds 1.274e-09 mm out of plane
_FAR_CONFIG = {"log_radius": math.log10(3e7), "azimuth": 0.0, "tilt": 0.5, "heading": 0.0}
_FAR = {"seed": 1, "start": (0.5, 0.2), "hit": True}


@settings(max_examples=120, deadline=None)
@given(config=far_configs, ws=st.lists(far_worlds, min_size=1, max_size=3))
@example(config=_FAR_CONFIG, ws=[_FAR])
@example(config=_FAR_CONFIG, ws=[_FAR, {"seed": 2, "start": (0.3, -0.1), "hit": True}])
def test_screened_path_check_raises_exactly_when_the_exact_check_does(config, ws):
    pattern = generate_pattern(0.1, 1.0)
    configs = [WorldConfig(seed=w["seed"], insertion_direction=_direction(config["tilt"],
                                                                         config["heading"]),
                           nominal_hole=10.0 ** config["log_radius"] * np.array(
                               [math.cos(config["azimuth"]), math.sin(config["azimuth"]), 0.0]))
               for w in ws]
    batch, twins = (_joined(configs) for _ in range(2))
    for block in (batch, twins):  # placed, not moved: a far start move may itself round
        block.tcp += np.array([block.basis @ np.array(w["start"]) for w in ws])
        block.true_hole[[not w["hit"] for w in ws]] += 10.0 * block.basis[:, 0]
    starts = batch.tcp.copy()
    with mock.patch.object(sim, "_INPLANE_TOL", math.inf):  # every path passes
        unchecked = spiral_search(twins, pattern, TIMING)
    message = _exact_path_message(batch, starts, unchecked, pattern)
    if message is None:
        assert spiral_search(batch, pattern, TIMING) == unchecked
    else:
        with pytest.raises(ConstraintViolation, match=f"^{re.escape(message)}$"):
            spiral_search(batch, pattern, TIMING)
        assert batch.tcp.tobytes() == starts.tobytes()
    if config == _FAR_CONFIG and ws[0] == _FAR:
        assert message == "TCP move has out-of-plane component 1.274e-09 mm"


def test_the_bound_clears_ordinary_worlds_and_not_the_far_one(monkeypatch):
    checked = []
    monkeypatch.setattr(sim, "_check_inplane", checked.append)
    pattern = generate_pattern(0.1, 3.0)
    worlds = new_worlds(WorldConfig(), range(_BLOCK))
    spiral_search(worlds, pattern, TIMING)  # a grid block at the default direction
    assert checked == []
    tilted = WorldConfig(insertion_direction=_direction(0.2, 1.0),
                         nominal_hole=vec3(4000.0, -3000.0, 500.0))
    spiral_search(new_worlds(tilted, range(4)), pattern, TIMING)
    assert checked == []
    # 3e7 mm out, the rounding margin alone is above the tolerance: each far
    # world's path gets the exact check (and passes it), an ordinary one's does not
    far = WorldConfig(insertion_direction=_direction(0.5, 0.0), nominal_hole=vec3(3e7, 0.0, 0.0))
    spiral_search(new_worlds(far, [1]), pattern, TIMING)
    assert len(checked) == 1
    spiral_search(new_worlds(WorldConfig(), [0]), pattern, TIMING)
    assert len(checked) == 1


def _screen(offsets, miss, thr):
    """spiral_search's squared screen over every (world, offset) pair."""
    dx, dy = offsets[:, 0] - miss[:, :1], offsets[:, 1] - miss[:, 1:]
    return np.nonzero(np.square(dx) + np.square(dy) <= np.square(thr)[:, None])


@settings(max_examples=200, deadline=None)
@given(tolerance=st.sampled_from([0.05, 0.1, 1.0, 3e3, 1e6]),
       rings=st.floats(0.0, 12.0), index=st.integers(0, 10**6),
       angle=st.floats(0.0, 2.0 * math.pi), radial=st.booleans(),
       scale=st.sampled_from([0.0, 1.0, 1e3, 1e7, 1e9]),
       shuffle=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_ring_band_holds_every_offset_the_full_screen_passes(tolerance, rings, index, angle,
                                                             radial, scale, shuffle):
    # worlds whose miss lies one threshold inside or outside a ring, a few
    # ulps either way, along that ring's offset or in any direction; offsets
    # out of ring order widen the band by their largest norm gap
    offsets = generate_pattern(tolerance, rings * tolerance).offsets
    if shuffle is not None:
        offsets = np.random.default_rng(shuffle).permutation(offsets)
    o = offsets[index % len(offsets)]
    thr = tolerance + 1e-9 * (tolerance + scale)
    toward = o / np.hypot(*o) if radial and o.any() else np.array([math.cos(angle),
                                                                    math.sin(angle)])
    far = np.hypot(*o) + np.array([-thr, thr])[:, None] + np.arange(-4, 5) * np.spacing(
        np.hypot(*o) + thr)
    miss = far.reshape(-1, 1) * toward
    thr = np.full(len(miss), thr)
    wi, ki = sim._ring_band(SearchPattern(offsets, 0.0, tolerance, 0.0), miss, thr)
    assert np.all(np.diff(wi) >= 0) and np.all((np.diff(ki) > 0) | (np.diff(wi) > 0))
    band = set(zip(wi.tolist(), ki.tolist()))
    full = set(zip(*(a.tolist() for a in _screen(offsets, miss, thr))))
    assert full <= band


@settings(max_examples=100, deadline=None)
@given(tolerance=st.sampled_from([0.05, 0.1, 0.2]), radius=st.sampled_from([0.3, 1.0, 3.0]),
       index=st.integers(0, 10**6), side=st.sampled_from([-1.0, 1.0]),
       ulps=st.integers(-4, 4), seed=st.integers(0, 2**32 - 1),
       nominal=st.one_of(st.just((0.0, 0.0, 0.0)),
                         st.tuples(*[st.floats(-1e7, 1e7)] * 2, st.floats(-1e5, 1e5))))
def test_ring_band_edges_match_reference(tolerance, radius, index, side, ulps, seed, nominal):
    # the start puts the hole one tolerance inside or outside an offset's ring,
    # along that offset, a few ulps of the start's coordinates either way
    cfg = WorldConfig(tolerance=tolerance, seed=seed, nominal_hole=np.array(nominal))
    pattern = generate_pattern(tolerance, radius)
    world = new_world(cfg)
    off = pattern.offsets[index % len(pattern)]
    ring = float(np.hypot(*off))
    toward = off / ring if ring else np.array([1.0, 0.0])
    step = ulps * np.spacing(max(np.abs(world.tcp).max(), ring + tolerance))
    miss0 = world.basis.T @ (world.true_hole - peg_position(world))[0]
    _assert_same(cfg, miss0 - (ring + side * tolerance + step) * toward, pattern)
