"""Simulated cell: hidden state, motion constraint, renderer, timing."""

import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.errors import ConstraintViolation, InvalidConfig, InvalidTolerance
from pegservo.geometry import (aimed_camera, camera_to_dict,
                               denormalize_error, error_direction,
                               inplane_basis, normalize_error, project,
                               scalar_error, vec3)
from pegservo.perception import OracleModel
from pegservo.pipeline import insert
from pegservo.servoing import servo_config_for
from pegservo.search import SearchPattern, generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                          config_from_dict, config_to_dict, default_cameras,
                          load_config_file, move_tcp, new_world, peg_position,
                          render, spiral_insert, spiral_search,
                          true_inplane_error, write_pgm)

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


def test_worlds_share_one_read_only_basis_per_direction():
    a = new_world(WorldConfig(seed=1))
    b = new_world(WorldConfig(seed=2, component_style="dsub"))
    assert a.basis is b.basis
    assert a.basis.tobytes() == inplane_basis(a.config.insertion_direction).tobytes()
    with pytest.raises(ValueError):
        a.basis[0, 0] = 2.0
    tilted = new_world(WorldConfig(insertion_direction=vec3(0.6, 0.0, -0.8)))
    assert tilted.basis is not a.basis
    assert tilted.basis.tobytes() == inplane_basis(vec3(0.6, 0.0, -0.8)).tobytes()


def test_insertion_builds_no_collection_stream():
    pattern, timing = generate_pattern(0.1, 1.0), TimingModel()
    searched, servoed = new_world(WorldConfig(seed=8)), new_world(WorldConfig(seed=8))
    insert(searched, "spiral_only", None, pattern, timing)
    insert(servoed, "servo_then_spiral",
           servo_config_for(servoed, (OracleModel(), OracleModel())), pattern, timing)
    assert "rng" not in vars(searched) and "rng" not in vars(servoed)
    # built on first use, from the world's own seed, then kept
    draw = searched.rng.random(3)
    assert np.array_equal(draw, np.random.default_rng(np.random.SeedSequence([8, 1])).random(3))
    assert searched.rng is searched.rng


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
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidConfig, match="peg_intensity"):
            WorldConfig(peg_intensity=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values_by_name(bad):
    with pytest.raises(InvalidTolerance):
        WorldConfig(tolerance=bad)
    for name in ("hole_uncertainty_sigma", "grasp_uncertainty_sigma", "hover_height"):
        with pytest.raises(InvalidConfig, match=name):
            WorldConfig(**{name: bad})
    # a non-finite position is named as such, not reported as a bad camera
    with pytest.raises(InvalidConfig, match="nominal_hole must be finite"):
        WorldConfig(nominal_hole=vec3(bad, 0.0, 0.0))
    with pytest.raises(InvalidConfig, match="insertion_direction must be a finite unit"):
        WorldConfig(insertion_direction=vec3(0.0, 0.0, bad))


def test_config_rejects_poses_behind_a_camera():
    # the default cameras sit 500 mm from the hole at 45 degrees: from a hover
    # height of about 707 mm the approach pose is behind them
    with pytest.raises(InvalidConfig, match="hover_height"):
        WorldConfig(hover_height=800.0)
    assert WorldConfig(hover_height=700.0).hover_height == 700.0
    for name in ("tolerance", "hole_uncertainty_sigma", "grasp_uncertainty_sigma"):
        for bad in (500.0, 1e300):  # not below the smallest camera depth
            with pytest.raises(InvalidConfig, match=name):
                WorldConfig(**{name: bad})
        assert getattr(WorldConfig(**{name: 400.0}), name) == 400.0
    with pytest.raises(InvalidConfig, match="hover_height"):
        WorldConfig(hover_height=1e300)


def test_config_rejects_a_negative_seed():
    with pytest.raises(InvalidConfig, match="seed"):
        WorldConfig(seed=-1)
    assert WorldConfig(seed=0).seed == 0


def test_with_seed_checks_the_seed_and_shares_the_per_camera_tuples():
    styled = WorldConfig(component_style="dsub", tolerance=0.2, seed=4)
    with pytest.raises(InvalidConfig, match="seed"):
        styled.with_seed(-1)
    twin = styled.with_seed(9)
    assert config_to_dict(twin) == config_to_dict(replace(styled, seed=9))
    assert twin.error_directions is styled.error_directions
    assert twin.crop_shifts is styled.crop_shifts
    assert styled.seed == 4 and new_world(twin).true_hole.tobytes() == new_world(
        replace(styled, seed=9)).true_hole.tobytes()


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_timing_rejects_negative_or_non_finite(bad):
    with pytest.raises(InvalidConfig):
        TimingModel(t_attempt=bad)
    assert TimingModel(t_move=0.0).t_move == 0.0


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
    assert w.max_inplane_violation <= 1e-9


def test_non_finite_target_rejected():
    w = _quiet_world()
    before = w.tcp.copy()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConstraintViolation):
            move_tcp(w, w.tcp + vec3(bad, 0.0, 0.0))
    assert np.array_equal(w.tcp, before)


def test_attempt_threshold():
    # a one-offset pattern: spiral_insert makes a single attempt at its start
    w = _quiet_world()
    eps = w.config.tolerance
    once = generate_pattern(eps, 0.0)
    assert len(once) == 1
    near = w.tcp + w.basis @ np.array([eps * 0.99, 0.0])
    assert spiral_insert(w, near, once, TimingModel()).success
    far = w.tcp + w.basis @ np.array([eps * 0.02, 0.0])
    assert not spiral_insert(w, far, once, TimingModel()).success
    assert w.attempt_count == 2


def test_attempt_success_fraction_area_ratio():
    # uniform in disc of radius 2 eps -> P(|e| <= eps) = 1/4: one attempt
    # each for copies of one world, in one spiral_search
    w = _quiet_world()
    eps = w.config.tolerance
    rng = np.random.default_rng(2024)
    n, worlds = 10_000, []
    for _ in range(n):
        theta = rng.uniform(0, 2 * np.pi)
        rad = 2 * eps * math.sqrt(rng.uniform())
        off = rad * np.array([math.cos(theta), math.sin(theta)])
        worlds.append(replace(w, tcp=w.tcp + w.basis @ off))
    episodes = spiral_search(worlds, generate_pattern(eps, 0.0), TimingModel())
    hits = sum(e.success for e in episodes)
    assert hits / n == pytest.approx(0.25, abs=0.02)


# ---------------------------------------------------------------- render


def test_render_shape_range_dtype():
    w = new_world(WorldConfig(seed=3))
    obs = render(w, 0)
    r = w.config.cameras[0].r
    assert obs.pixels.shape == (r, r)
    assert obs.pixels.dtype == np.float32
    assert obs.pixels.min() >= 0.0 and obs.pixels.max() <= 1.0


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
    assert out.time_s == pytest.approx(0.25, abs=1e-12)
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


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tol=st.floats(1e-12, 10.0))
def test_spiral_warns_exactly_when_np_isclose_says_false(data, tol):
    # a world's tolerance is finite (WorldConfig rejects inf); a pattern's may be anything
    got = data.draw(st.one_of(
        st.floats(),  # nan and +-inf included
        st.just(tol),
        st.floats(-3e-5, 3e-5).map(lambda rel: tol * (1.0 + rel)),
        st.floats(-3e-8, 3e-8).map(lambda off: tol + off)))
    w = _quiet_world(tolerance=tol)
    pattern = SearchPattern(offsets=np.zeros((1, 2)), spacing=1.0,
                            tolerance=got, max_radius=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spiral_insert(w, w.tcp, pattern, TimingModel())
    warned = any("pattern tolerance" in str(c.message) for c in caught)
    assert warned == (not np.isclose(got, tol))


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
    assert len(cfg.error_directions) == len(cfg.crop_shifts) == 2
    # the cached per-camera constants are not config keys
    assert set(config_to_dict(cfg)) == {f.name for f in fields(WorldConfig)}
    back = config_from_dict(WorldConfig,
                            json.loads(json.dumps(config_to_dict(cfg))))
    assert back.tolerance == cfg.tolerance
    assert back.component_style == cfg.component_style
    assert back.seed == cfg.seed
    assert len(back.cameras) == len(cfg.cameras)
    for ca, cb in zip(cfg.cameras, back.cameras):
        assert np.array_equal(ca.position, cb.position)
        assert np.array_equal(ca.orientation, cb.orientation)
    # same hidden draws either way
    assert np.array_equal(new_world(cfg).true_hole, new_world(back).true_hole)


# hand-typed directions: two decimal components and the third rounded to some
# digits, within validation's 1e-6 of unit norm; and random unit vectors
_TYPED_DIRECTIONS = st.tuples(st.integers(-60, 60), st.integers(-60, 60),
                              st.integers(7, 17)).map(
    lambda t: [t[0] / 100, t[1] / 100,
               -round(math.sqrt(1.0 - (t[0] / 100) ** 2 - (t[1] / 100) ** 2), t[2])])
_NORMALIZED_DIRECTIONS = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, -0.2)).map(
    lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=100, deadline=None)
@given(direction=st.one_of(_TYPED_DIRECTIONS, _NORMALIZED_DIRECTIONS))
def test_world_config_is_a_fixed_point_of_its_validation(direction):
    # each grid episode's replace() and a rerun from the manifest's config
    # echo rebuild a config from its own fields: the direction must not move
    cfg = WorldConfig(insertion_direction=direction)
    echoed = config_from_dict(WorldConfig, json.loads(json.dumps(config_to_dict(cfg))))
    for again in (replace(cfg, seed=1), echoed):
        assert again.insertion_direction.tobytes() == cfg.insertion_direction.tobytes()


def test_camera_shorthand_aims_at_the_nominal_hole():
    hole = vec3(1.0, 2.0, 0.0)
    cfg = config_from_dict(WorldConfig, {
        "nominal_hole": [1.0, 2.0, 0.0],
        "cameras": [{"position": [300.0, 2.0, 300.0]},
                    {"position": [1.0, 300.0, 300.0], "f": 900, "r": 32}]})
    want = [aimed_camera(vec3(300.0, 2.0, 300.0), hole, L, f=1000.0, r=64),
            aimed_camera(vec3(1.0, 300.0, 300.0), hole, L, f=900.0, r=32)]
    assert [camera_to_dict(c) for c in cfg.cameras] == \
        [camera_to_dict(c) for c in want]


def test_world_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidConfig, match="spacing"):
        config_from_dict(WorldConfig, {"tolerance": 0.1, "spacing": 3})


@pytest.mark.parametrize("cls, section", [
    (WorldConfig, [0.1]),
    (WorldConfig, {"cameras": [{"f": 900}, {"f": 900}]}),
    (WorldConfig, {"cameras": [7, 8]}),
    (WorldConfig, {"insertion_direction": "down"}),
    (WorldConfig, {"seed": True}),
    (WorldConfig, {"peg_intensity": "bright"}),
    (TimingModel, {"t_attempt": "fast"}),
    (TimingModel, {"t_attempt": -1}),
])
def test_config_from_dict_rejects_bad_values(cls, section):
    with pytest.raises(InvalidConfig):
        config_from_dict(cls, section)


def test_config_from_dict_converts_json_values():
    cfg = config_from_dict(WorldConfig, {"tolerance": 1, "seed": 4,
                                         "peg_intensity": None})
    assert type(cfg.tolerance) is float and cfg.seed == 4
    assert cfg.peg_intensity is None


def test_timing_dict_roundtrip_and_config_file(tmp_path):
    t = TimingModel(t_attempt=0.3)
    assert config_from_dict(TimingModel, config_to_dict(t)) == t
    with pytest.raises(InvalidConfig):
        config_from_dict(TimingModel, {"t_blink": 1.0})
    p = tmp_path / "cfg.json"
    p.write_text('{"world": {"seed": 3}, "timing": {"t_move": 0.2}}')
    raw = load_config_file(p)
    assert raw["world"]["seed"] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidConfig):
        load_config_file(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(InvalidConfig):
        load_config_file(bad)


def test_extra_error_radius_not_applied_at_creation():
    # start error comes only from the sigma draws, not the benchmark disc
    w = new_world(WorldConfig(seed=123))
    assert true_inplane_error(w) < 0.1


def test_elapsed_time_accumulates():
    w = _quiet_world()
    pattern = generate_pattern(w.config.tolerance, 1.0)
    timing = TimingModel()
    spiral_insert(w, w.tcp, pattern, timing)
    start = w.tcp + w.basis @ np.array([0.3, 0.1])
    out = spiral_insert(w, start, pattern, timing)
    assert w.elapsed_time == pytest.approx(0.25 + out.time_s, abs=1e-12)
