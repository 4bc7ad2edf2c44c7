"""Simulated cell: hidden state, motion constraint, renderer, timing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pegservo.errors import ConstraintViolation, InvalidConfig
from pegservo.geometry import (denormalize_error, error_direction,
                               normalize_error, project, scalar_error, vec3)
from pegservo.search import generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                          attempt_insertion, default_cameras, load_config_file,
                          move_tcp, new_world, peg_position, render,
                          spiral_insert, timing_from_dict, timing_to_dict,
                          true_inplane_error, world_from_dict, world_to_dict,
                          write_pgm)

L = vec3(0.0, 0.0, -1.0)


def _quiet_world(seed=0, **kw):
    return new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                                 grasp_uncertainty_sigma=0.0, seed=seed, **kw))


# ---------------------------------------------------------------- timing


def test_timing_defaults_and_servo_step():
    t = TimingModel()
    assert (t.t_attempt, t.t_capture, t.t_infer, t.t_move) == (0.25, 0.083, 0.067, 0.133)
    # one servo step, 2 cameras: 2*(0.083+0.067) + 0.133 = 0.433
    assert t.servo_step_time(2) == pytest.approx(0.433, abs=1e-12)
    assert 3 * t.servo_step_time(2) == pytest.approx(1.299, abs=1e-12)


def test_search_time_constant():
    # expected attempts for error e: lattice points in the disc of radius e,
    # ~ pi e^2 / (cell area (sqrt(3)/2) s^2) with s = eps sqrt(3)
    # => k = t_attempt * 2 pi / (3 sqrt(3))
    t = TimingModel()
    assert t.search_time_constant == pytest.approx(
        0.25 * 2.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-12)


# ---------------------------------------------------------------- world


def test_zero_sigma_world_is_exact():
    w = _quiet_world()
    assert np.array_equal(w.true_hole, w.nominal_hole)
    assert np.array_equal(w.grasp_offset, [0.0, 0.0])
    assert true_inplane_error(w) == 0.0
    # TCP parks hover_height above the hole along -l
    assert np.allclose(w.tcp, [0.0, 0.0, 0.5], atol=1e-15)


def test_same_seed_is_bit_identical():
    a = new_world(WorldConfig(seed=5))
    b = new_world(WorldConfig(seed=5))
    assert np.array_equal(a.true_hole, b.true_hole)
    assert np.array_equal(a.grasp_offset, b.grasp_offset)
    assert a.appearance == b.appearance
    pa = render(a, 0).pixels
    pb = render(b, 0).pixels
    assert np.array_equal(pa, pb)


def test_neighbouring_seeds_differ():
    differing = sum(
        not np.array_equal(new_world(WorldConfig(seed=s)).true_hole,
                           new_world(WorldConfig(seed=s + 1)).true_hole)
        for s in range(100))
    assert differing >= 99


def test_config_validation():
    with pytest.raises(InvalidConfig):
        WorldConfig(tolerance=0.0)
    with pytest.raises(InvalidConfig):
        WorldConfig(hole_uncertainty_sigma=-0.1)
    with pytest.raises(InvalidConfig):
        WorldConfig(component_style="resistor")
    with pytest.raises(InvalidConfig):
        WorldConfig(insertion_direction=vec3(0, 0, -2.0))
    cams = default_cameras(vec3(0, 0, 0), L)
    with pytest.raises(InvalidConfig):
        WorldConfig(cameras=cams[:1])


def test_default_cameras_well_conditioned():
    cams = default_cameras(vec3(0, 0, 0), L)
    assert len(cams) == 2
    u0 = error_direction(L, -cams[0].position)
    u1 = error_direction(L, -cams[1].position)
    # views separated enough that the two error directions span the plane
    assert abs(np.dot(u0, u1)) < 0.5
    for cam in cams:
        assert cam.z == pytest.approx(np.linalg.norm(cam.position), rel=1e-12)


# ---------------------------------------------------------------- motion


def test_inplane_constraint_enforced():
    w = _quiet_world()
    with pytest.raises(ConstraintViolation):
        move_tcp(w, w.tcp + vec3(0.0, 0.0, 0.1))
    move_tcp(w, w.tcp + vec3(0.3, -0.2, 0.0))  # in-plane: fine
    move_tcp(w, w.tcp + vec3(0.0, 0.0, -0.4), stroke=True)  # stroke: fine
    assert w.max_inplane_violation <= 1e-9


def test_non_finite_target_rejected():
    w = _quiet_world()
    before = w.tcp.copy()
    for bad in (np.nan, np.inf, -np.inf):
        for stroke in (False, True):
            with pytest.raises(ConstraintViolation):
                move_tcp(w, w.tcp + vec3(bad, 0.0, 0.0), stroke=stroke)
    assert np.array_equal(w.tcp, before)


def test_attempt_threshold():
    w = _quiet_world()
    eps = w.config.tolerance
    move_tcp(w, w.tcp + w.basis @ np.array([eps * 0.99, 0.0]))
    assert attempt_insertion(w)
    move_tcp(w, w.tcp + w.basis @ np.array([eps * 0.02, 0.0]))
    assert not attempt_insertion(w)
    assert w.attempt_count == 2


def test_attempt_success_fraction_area_ratio():
    # uniform in disc of radius 2 eps -> P(|e| <= eps) = 1/4
    w = _quiet_world()
    eps = w.config.tolerance
    rng = np.random.default_rng(2024)
    n, hits = 10_000, 0
    start = w.tcp.copy()
    for _ in range(n):
        theta = rng.uniform(0, 2 * np.pi)
        rad = 2 * eps * math.sqrt(rng.uniform())
        off = rad * np.array([math.cos(theta), math.sin(theta)])
        hits += attempt_insertion(w, start + w.basis @ off)
    assert hits / n == pytest.approx(0.25, abs=0.02)


# ---------------------------------------------------------------- render


def test_render_shape_range_dtype():
    w = new_world(WorldConfig(seed=3))
    obs = render(w, 0)
    r = w.config.cameras[0].r
    assert obs.pixels.shape == (r, r)
    assert obs.pixels.dtype == np.float32
    assert obs.pixels.min() >= 0.0 and obs.pixels.max() <= 1.0
    assert obs.camera_index == 0


def test_render_is_deterministic_and_pose_sensitive():
    w = new_world(WorldConfig(seed=3))
    a = render(w, 0).pixels
    b = render(w, 0).pixels
    assert np.array_equal(a, b)
    move_tcp(w, w.tcp + w.basis @ np.array([0.2, 0.0]))
    c = render(w, 0).pixels
    assert not np.array_equal(a, c)


def test_render_truth_label_matches_geometry():
    w = new_world(WorldConfig(seed=17))
    move_tcp(w, w.tcp + w.basis @ np.array([-0.4, 0.25]))
    for j, cam in enumerate(w.config.cameras):
        obs = render(w, j)
        u = error_direction(L, w.nominal_hole - cam.position)
        e = w.true_hole - peg_position(w)
        e = e - np.dot(e, L) * L
        assert obs.truth_y == pytest.approx(
            normalize_error(scalar_error(e, u), cam), abs=1e-12)


def test_render_label_consistency_with_projection():
    # horizontal pixel displacement between peg and hole ~= y * r within
    # 1.5 px (orthographic approximation of the pinhole at |q| <= 1 mm)
    rng = np.random.default_rng(99)
    checked = 0
    for trial in range(1000):
        cfg = WorldConfig(seed=int(rng.integers(1 << 31)),
                          hover_height=0.0)
        w = new_world(cfg)
        off = rng.uniform(-0.7, 0.7, size=2)
        move_tcp(w, w.tcp + w.basis @ off)
        j = int(rng.integers(len(cfg.cameras)))
        cam = cfg.cameras[j]
        u = error_direction(L, w.nominal_hole - cam.position)
        peg = peg_position(w)
        e = w.true_hole - peg
        e = e - np.dot(e, L) * L
        q = scalar_error(e, u)
        if abs(q) > 1.0:
            continue
        hole_px = project(cam, w.true_hole)[0]
        peg_px = project(cam, peg)[0]
        y = normalize_error(q, cam)
        assert abs((hole_px - peg_px) - y * cam.r) <= 1.5
        checked += 1
    assert checked > 900


def test_render_without_peg_marking():
    w = new_world(WorldConfig(seed=4, peg_intensity=None))
    obs = render(w, 0)
    # hole still present (dark), no bright glyph anywhere
    assert obs.pixels.min() < 0.25
    assert obs.pixels.max() < 0.8


def test_render_all_styles_distinct():
    imgs = {}
    for style in COMPONENT_STYLES:
        w = _quiet_world(component_style=style)
        imgs[style] = render(w, 0).pixels
    styles = list(COMPONENT_STYLES)
    for i, a in enumerate(styles):
        for b in styles[i + 1:]:
            assert not np.array_equal(imgs[a], imgs[b]), (a, b)


# ---------------------------------------------------------------- spiral


def test_spiral_insert_at_hole():
    w = _quiet_world()
    pattern = generate_pattern(w.config.tolerance, 1.0)
    out = spiral_insert(w, w.tcp, pattern, TimingModel())
    assert out.success and out.attempts == 1
    assert out.simulated_time == pytest.approx(0.25, abs=1e-12)
    assert out.retrospective_error_mm == pytest.approx(0.0, abs=1e-12)
    assert w.elapsed_time == pytest.approx(0.25, abs=1e-12)


def test_spiral_quadratic_attempt_ratio():
    # doubling the start error quadruples the expected attempt count
    pattern = generate_pattern(0.05, 1.0)
    timing = TimingModel()

    def mean_attempts(err, n=200):
        rng = np.random.default_rng(7)
        total = 0
        for s in range(n):
            w = new_world(WorldConfig(seed=50_000 + s, tolerance=0.05))
            theta = rng.uniform(0, 2 * np.pi)
            start = w.tcp + w.basis @ (err * np.array([math.cos(theta), math.sin(theta)]))
            move_tcp(w, start)
            out = spiral_insert(w, start, pattern, timing)
            assert out.success
            total += out.attempts
        return total / n

    ratio = mean_attempts(0.8) / mean_attempts(0.4)
    assert ratio == pytest.approx(4.0, abs=0.5)


def test_spiral_exhaustion_returns_failure():
    w = _quiet_world()
    pattern = generate_pattern(w.config.tolerance, 0.0)  # single offset
    start = w.tcp + w.basis @ np.array([0.9, 0.0])
    out = spiral_insert(w, start, pattern, TimingModel())
    assert not out.success
    assert out.attempts == len(pattern)
    assert math.isnan(out.retrospective_error_mm)
    assert np.array_equal(w.tcp, start)  # returned to start


def test_spiral_retrospective_error():
    w = _quiet_world()
    pattern = generate_pattern(w.config.tolerance, 1.0)
    start = w.tcp + w.basis @ np.array([0.5, 0.0])
    out = spiral_insert(w, start, pattern, TimingModel())
    assert out.success
    # success position is within eps of the hole, start was 0.5 away
    assert out.retrospective_error_mm == pytest.approx(0.5, abs=w.config.tolerance)


def test_spiral_warns_on_tolerance_mismatch():
    w = _quiet_world()
    pattern = generate_pattern(0.2, 0.5)
    with pytest.warns(UserWarning):
        spiral_insert(w, w.tcp, pattern, TimingModel())


# ---------------------------------------------------------------- io


def test_pgm_export(tmp_path):
    w = new_world(WorldConfig(seed=1))
    obs = render(w, 0)
    path = tmp_path / "obs.pgm"
    write_pgm(obs.pixels, path)
    blob = path.read_bytes()
    r = w.config.cameras[0].r
    assert blob.startswith(f"P5\n{r} {r}\n255\n".encode())
    assert len(blob) == len(f"P5\n{r} {r}\n255\n") + r * r


def test_world_config_dict_roundtrip():
    cfg = WorldConfig(seed=9, component_style="dsub", tolerance=0.08)
    back = world_from_dict(world_to_dict(cfg))
    assert back.tolerance == cfg.tolerance
    assert back.component_style == cfg.component_style
    assert back.seed == cfg.seed
    assert len(back.cameras) == len(cfg.cameras)
    for ca, cb in zip(cfg.cameras, back.cameras):
        assert np.array_equal(ca.position, cb.position)
        assert np.array_equal(ca.orientation, cb.orientation)
    # same hidden draws either way
    assert np.array_equal(new_world(cfg).true_hole, new_world(back).true_hole)


def test_world_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidConfig):
        world_from_dict({"tolerance": 0.1, "spacing": 3})


def test_timing_dict_roundtrip_and_config_file(tmp_path):
    t = TimingModel(t_attempt=0.3)
    assert timing_from_dict(timing_to_dict(t)) == t
    with pytest.raises(InvalidConfig):
        timing_from_dict({"t_blink": 1.0})
    p = tmp_path / "cfg.json"
    p.write_text('{"world": {"seed": 3}, "timing": {"t_move": 0.2}}')
    raw = load_config_file(p)
    assert raw["world"]["seed"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidConfig):
        load_config_file(bad)


def test_extra_error_radius_not_applied_at_creation():
    # start error comes only from the sigma draws, not the benchmark disc
    w = new_world(WorldConfig(seed=123, extra_error_radius=1.0))
    assert true_inplane_error(w) < 0.1


def test_elapsed_time_accumulates():
    w = _quiet_world()
    pattern = generate_pattern(w.config.tolerance, 1.0)
    timing = TimingModel()
    spiral_insert(w, w.tcp, pattern, timing)
    start = w.tcp + w.basis @ np.array([0.3, 0.1])
    out = spiral_insert(w, start, pattern, timing)
    assert w.elapsed_time == pytest.approx(0.25 + out.simulated_time, abs=1e-12)
