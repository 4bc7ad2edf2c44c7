"""Simulated cell: hidden state, motion constraint, renderer, timing."""

import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import true_inplane_error
from pegservo.errors import ConstraintViolation, InvalidConfig, InvalidTolerance
from pegservo.geometry import (aimed_camera, denormalize_error, error_direction,
                               inplane_basis, normalize_error, project,
                               scalar_error, vec3)
from pegservo import pipeline
from pegservo.perception import OracleModel
from pegservo.pipeline import CollectionConfig, collect_dataset, insert
from pegservo.servoing import servo_config_for
from pegservo.search import SearchPattern, generate_pattern
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig, Worlds,
                          config_from_dict, config_to_dict, default_cameras,
                          load_config_file, move_tcp, move_tcps, new_world, new_worlds,
                          peg_position, render, render_views, spiral_insert, spiral_search,
                          write_pgm)
from pegservo.streams import keyed_generators, keyed_uniforms, seed_states

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
    assert np.array_equal(w.true_hole, [w.nominal_hole])
    assert np.array_equal(w.grasp_offset, [[0.0, 0.0]])
    assert true_inplane_error(w) == 0.0
    # TCP parks hover_height above the hole along -l
    assert np.allclose(w.tcp, [[0.0, 0.0, 0.5]], atol=1e-15)


def test_same_seed_is_bit_identical():
    a = new_world(WorldConfig(seed=5))
    b = new_world(WorldConfig(seed=5))
    assert np.array_equal(a.true_hole, b.true_hole)
    assert np.array_equal(a.grasp_offset, b.grasp_offset)
    assert (a.background, a.hole_radius_px) == (b.background, b.hole_radius_px)
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


def test_insertion_builds_no_collection_stream(monkeypatch):
    keys, kernel = [], pipeline.keyed_generators

    def recording(batch):
        keys.extend(np.asarray(batch).tolist())
        return kernel(batch)

    monkeypatch.setattr(pipeline, "keyed_generators", recording)
    pattern, timing = generate_pattern(0.1, 1.0), TimingModel()
    searched, servoed = new_world(WorldConfig(seed=8)), new_world(WorldConfig(seed=8))
    insert(searched, "spiral_only", None, pattern, timing)
    insert(servoed, "servo_then_spiral",
           servo_config_for(servoed, (OracleModel(), OracleModel())), pattern, timing)
    assert keys == []
    # a collection seeds each inserted world's [seed, 1] stream
    collect_dataset(lambda i: new_world(WorldConfig(seed=8 + i)),
                    CollectionConfig(n_insertions=2, samples_per_insertion=1,
                                     train_insertions=1), pattern)
    assert keys == [[8, 1], [9, 1]]


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
    with pytest.raises(InvalidConfig, match="seed must be >= 0, got -1"):
        new_worlds(WorldConfig(seed=4), [-1])


@pytest.mark.parametrize("bad", [1.5, "3", True, np.float64(2.0), None])
def test_the_seed_is_an_integer(bad):
    # the seeding kernel takes integer keys: anything else is refused where
    # it is set, by the config and by new_worlds
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        WorldConfig(seed=bad)
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        new_worlds(WorldConfig(), [bad])
    for seed in (np.int64(3), np.uint8(3)):
        assert type(WorldConfig(seed=seed).seed) is int
        seeds = new_worlds(WorldConfig(), [seed]).seed  # as a Python int's
        assert seeds.tolist() == [3] and seeds.dtype == np.array([3]).dtype


@pytest.mark.parametrize("direction", [vec3(0.0, 0.0, -1.0), vec3(0.6, 0.0, -0.8)])
def test_sees_disc_is_sees_on_its_rim(direction):
    # the rim point of least depth per camera decides: a dense sampling of the
    # rim agrees, on both sides of the default cameras' reach (about 706 mm)
    cfg = WorldConfig(insertion_direction=direction)
    pose = cfg.nominal_hole - cfg.hover_height * cfg.insertion_direction
    angles = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
    rim = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ inplane_basis(direction).T
    seen = {}
    for radius in (0.0, 1.0, 500.0, 650.0, 700.0, 720.0, 800.0, 1e4):
        seen[radius] = cfg.sees_disc(radius)
        assert seen[radius] == cfg.sees(pose + radius * rim), radius
    assert seen[500.0] and not seen[1e4]


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


def test_a_failing_spiral_path_leaves_the_batch_unchanged():
    # Far out along a tilted direction a move's rounding leaves the plane by
    # more than the tolerance: the start passes, a pattern step does not
    tilted = vec3(math.sin(0.5), 0.0, -math.cos(0.5))
    far_cfg = WorldConfig(insertion_direction=tilted, nominal_hole=vec3(3e7, 0.0, 0.0))
    block = new_worlds(far_cfg, [1, 2])
    ordinary = new_world(WorldConfig(seed=2))
    move_tcps(block, block.tcp + np.array([block.basis @ np.array(start)
                                           for start in ([0.5, 0.2], [0.3, -0.1])]))
    move_tcp(ordinary, ordinary.tcp + ordinary.basis @ np.array([0.3, -0.1]))
    before = block.tcp.copy()
    with pytest.raises(ConstraintViolation, match="out-of-plane component 1.274e-09 mm"):
        spiral_search(block, generate_pattern(0.1, 1.0), TimingModel())
    assert block.tcp.tobytes() == before.tobytes()
    # an ordinary world is searched: its TCP moves
    start = ordinary.tcp.copy()
    [episode] = spiral_search(ordinary, generate_pattern(0.1, 1.0), TimingModel())
    assert episode.success and episode.attempts > 1
    assert ordinary.tcp.tobytes() != start.tobytes()


def test_non_finite_target_rejected():
    w = _quiet_world()
    before = w.tcp.copy()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConstraintViolation):
            move_tcp(w, w.tcp + vec3(bad, 0.0, 0.0))
    assert np.array_equal(w.tcp, before)


_MOVED_CONFIGS = st.fixed_dictionaries({
    "tilt": st.one_of(st.just(0.0), st.floats(0.0, 1.2)),
    "heading": st.floats(0.0, 2.0 * math.pi),
    "nominal": st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1e7, 1e7)] * 3)),
    "lifted": st.booleans(),  # a basis tipped out of plane: its move leaves the plane
})
_OFFSETS = st.tuples(*[st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, 1e-300, math.nan, math.inf]))] * 2)


@settings(max_examples=150, deadline=None)
@given(config=_MOVED_CONFIGS, offsets=st.lists(_OFFSETS, min_size=1, max_size=6))
def test_block_move_is_the_per_world_move_tcp_loop(config, offsets):
    # a block is one config, its worlds at their own seeds
    def built():
        direction = vec3(math.sin(config["tilt"]) * math.cos(config["heading"]),
                         math.sin(config["tilt"]) * math.sin(config["heading"]),
                         -math.cos(config["tilt"]))
        worlds = []
        for k in range(len(offsets)):
            world = new_world(WorldConfig(insertion_direction=direction, seed=k,
                                          nominal_hole=np.array(config["nominal"])))
            if config["lifted"]:
                world.basis = world.basis - 1e-3 * world.config.insertion_direction[:, None]
            worlds.append(world)
        return worlds

    offsets = np.array(offsets)
    loop, block = built(), Worlds.join(built())  # blocks of one, and their join
    with np.errstate(invalid="ignore"):  # an inf offset times a 0 coefficient
        try:
            for world, offset in zip(loop, offsets):  # the per-world moves it replaces
                move_tcp(world, world.tcp + world.basis @ offset)
            expected = None
        except ConstraintViolation as exc:
            expected = str(exc)
        # one stacked product with the block's basis: each row bit for bit its own
        targets = block.tcp + (block.basis @ offsets[:, :, None])[:, :, 0]
        if expected is None:
            move_tcps(block, targets)
        else:
            with pytest.raises(ConstraintViolation) as raised:
                move_tcps(block, targets)
            assert str(raised.value) == expected
    assert block.tcp.tobytes() == b"".join(w.tcp.tobytes() for w in loop)


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


def test_attempt_success_fraction_area_ratio():
    # uniform in disc of radius 2 eps -> P(|e| <= eps) = 1/4: one attempt
    # each for copies of one world, in one spiral_search
    w = _quiet_world()
    eps = w.config.tolerance
    rng = np.random.default_rng(2024)
    n = 10_000
    worlds = w[np.zeros(n, dtype=int)]  # n copies of the block of one
    for k in range(n):
        theta = rng.uniform(0, 2 * np.pi)
        rad = 2 * eps * math.sqrt(rng.uniform())
        off = rad * np.array([math.cos(theta), math.sin(theta)])
        worlds.tcp[k] += w.basis @ off
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
    # a batch is one config: it warns once per call, not once per world
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spiral_search(new_worlds(w.config, range(3)), pattern, TimingModel())
    assert ["pattern tolerance" in str(c.message) for c in caught] == [True]


def test_an_empty_block_searches_to_the_columns_of_a_one_world_block():
    # an empty block once returned Episodes.of([]), whose attempts column was float64
    config = _quiet_world().config
    pattern = generate_pattern(config.tolerance, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty, one = (spiral_search(new_worlds(config, range(n)), pattern, TimingModel())
                      for n in (0, 1))
    assert len(empty) == 0 and len(one) == 1
    assert ({name: c.dtype for name, c in empty.columns.items()}
            == {name: c.dtype for name, c in one.columns.items()})


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
    # one resolution per config: the defaults (f 1000, r 64) beside an f override,
    # then an r override on both cameras
    hole = vec3(1.0, 2.0, 0.0)
    for r, cams in ((None, [{"position": [300.0, 2.0, 300.0]},
                            {"position": [1.0, 300.0, 300.0], "f": 900}]),
                    (32, [{"position": [300.0, 2.0, 300.0], "r": 32},
                          {"position": [1.0, 300.0, 300.0], "f": 900, "r": 32}])):
        cfg = config_from_dict(WorldConfig, {"nominal_hole": [1.0, 2.0, 0.0], "cameras": cams})
        want = [aimed_camera(vec3(300.0, 2.0, 300.0), hole, L, f=1000.0, r=r or 64),
                aimed_camera(vec3(1.0, 300.0, 300.0), hole, L, f=900.0, r=r or 64)]
        assert [config_to_dict(c) for c in cfg.cameras] == \
            [config_to_dict(c) for c in want]


def test_cameras_of_two_resolutions_are_refused():
    # a scene renders as one (n, m, r, r) array: WorldConfig refuses mixed r,
    # naming each camera's
    cams = [{"position": [300.0, 0.0, 300.0], "r": 64},
            {"position": [0.0, 300.0, 300.0], "r": 32}]
    with pytest.raises(InvalidConfig,
                       match=r"^cameras must share one resolution, got r = \[64, 32\]$"):
        config_from_dict(WorldConfig, {"cameras": cams})
    with pytest.raises(InvalidConfig, match=r"r = \[64, 32\]"):
        WorldConfig(cameras=(default_cameras(vec3(0.0, 0.0, 0.0), L)[0],
                             default_cameras(vec3(0.0, 0.0, 0.0), L, r=32)[1]))


@pytest.mark.parametrize("edit", [{"r": 64.7}, {"r": True}, {"r": "64"}, {"f": True},
                                  {"f": "1000"}], ids=str)
def test_camera_fields_are_checked_not_coerced(edit):
    # int() and float() once made r 64.7 a 64 px camera and f true a focal length of 1
    [(name, _)] = edit.items()
    other = {"position": [0.0, 353.5, 353.5]}
    shorthand = {"position": [353.5, 0.0, 353.5]}
    full = config_to_dict(aimed_camera(vec3(353.5, 0.0, 353.5), vec3(0, 0, 0), L,
                                       f=1000.0, r=64))
    for cam in (shorthand, full):
        with pytest.raises(InvalidConfig, match=f"^camera {name} must be"):
            config_from_dict(WorldConfig, {"cameras": [{**cam, **edit}, other]})
    for cam in (shorthand, full):  # an integral r is an int
        cfg = config_from_dict(WorldConfig, {"cameras": [{**cam, "r": 64.0}, other]})
        assert type(cfg.cameras[0].r) is int and config_to_dict(cfg.cameras[0]) == full


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


_DEPTH = min(cam.z for cam in WorldConfig().cameras)  # the default cameras' 500 mm


@settings(max_examples=200, deadline=None)  # about one draw in twenty is refused
@given(seed=st.integers(0, 2**32 - 1),
       sigmas=st.tuples(*[st.floats(0.0, _DEPTH, exclude_max=True)] * 2))
def test_a_world_is_refused_or_seen_by_every_camera(seed, sigmas):
    # new_world refuses a draw that puts the hole, or the peg at the approach
    # pose, behind a camera (sigmas reach WorldConfig's bound, the smallest
    # camera depth); every world it returns renders on every camera
    cfg = WorldConfig(hole_uncertainty_sigma=sigmas[0], grasp_uncertainty_sigma=sigmas[1],
                      seed=seed)
    try:
        world = new_world(cfg)
    except InvalidConfig as exc:
        assert str(exc).startswith(f"seed {seed} ") and "behind a camera" in str(exc)
        return
    pixels, truth_y = render_views(world, world.tcp)  # one scene of every camera
    assert pixels.shape == (1, len(cfg.cameras), 64, 64) and truth_y.shape == pixels.shape[:2]


def _reference_world(cfg, seed):
    """The world of cfg at seed, one draw at a time from numpy's own scene
    stream: a dict of its hidden fields, or the InvalidConfig text it raises."""
    scene = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    hole2 = cfg.hole_uncertainty_sigma * scene.standard_normal(2)
    grasp2 = cfg.grasp_uncertainty_sigma * scene.standard_normal(2)
    background, radius = scene.uniform(0.4, 0.6), scene.uniform(3.6, 4.4)
    basis = inplane_basis(cfg.insertion_direction)
    true_hole = cfg.nominal_hole + basis @ hole2
    tcp = cfg.nominal_hole - cfg.hover_height * cfg.insertion_direction
    if not cfg.sees(np.array([true_hole, tcp + basis @ grasp2])):
        what, drawn = (("draws the hole", hole2) if not cfg.sees(true_hole)
                       else ("puts the peg", grasp2))
        return (f"seed {seed} {what} behind a camera "
                f"(drawn offset {drawn.round(3).tolist()} mm)")
    return {"true_hole": true_hole.tobytes(), "grasp_offset": grasp2.tobytes(),
            "tcp": tcp.tobytes(), "background": background, "radius": radius}


def _hidden_fields(world):
    """A block of one's hidden fields, as _reference_world gives them."""
    return {"true_hole": world.true_hole[0].tobytes(),
            "grasp_offset": world.grasp_offset[0].tobytes(), "tcp": world.tcp[0].tobytes(),
            "background": world.background[0], "radius": world.hole_radius_px[0]}


def test_new_world_draws_numpys_scene_stream():
    for seed in (0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**70):
        cfg = WorldConfig(seed=seed, hole_uncertainty_sigma=0.3)
        assert _hidden_fields(new_world(cfg)) == _reference_world(cfg, seed)


# a key's integers, with the word boundaries forced in
_KEY_INTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
                      st.integers(0, 2**70 - 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 10), n=st.integers(1, 6))
def test_seeding_kernel_is_numpys_seed_sequence(data, width, n):
    keys = data.draw(st.lists(st.lists(_KEY_INTS, min_size=width, max_size=width),
                              min_size=n, max_size=n))
    states = seed_states(keys)
    assert states.dtype == np.uint64 and states.shape == (n, 4)
    for key, state, rng in zip(keys, states, keyed_generators(keys), strict=True):
        numpy_rng = np.random.default_rng(np.random.SeedSequence(key))
        for n_words in (1, 4):
            assert state[:n_words].tolist() == np.random.SeedSequence(key).generate_state(
                n_words, np.uint64).tolist()
        assert rng.random(3).tobytes() == numpy_rng.random(3).tobytes()
        assert rng.standard_normal(5).tobytes() == numpy_rng.standard_normal(5).tobytes()


def test_seeding_kernel_takes_rows_of_non_negative_integers():
    assert seed_states([]).shape == (0, 4)
    assert list(keyed_generators([])) == []
    for bad in ([[1.5]], [[True, 2]], [[-1]], [[-(2**70)]], [[1], [2, 3]], [1, 2]):
        with pytest.raises(ValueError, match="keys must be"):
            seed_states(bad)


# a uniform key's words, the 32- and 64-bit boundaries among them
_UNIFORM_INTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**64 - 1, 2**64]),
                          st.integers(0, 2**96 - 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 6), n=st.integers(0, 6), k=st.integers(0, 4))
def test_uniform_kernel_is_numpys_random(data, width, n, k):
    keys = data.draw(st.lists(st.lists(_UNIFORM_INTS, min_size=width, max_size=width),
                              min_size=n, max_size=n))
    draws = keyed_uniforms(keys, k)
    assert draws.dtype == np.float64 and draws.shape == (n, k)
    expected = np.array([rng.random(k) for rng in keyed_generators(keys)]).reshape(n, k)
    assert draws.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


_STYLED_CONFIGS = st.builds(
    WorldConfig, component_style=st.sampled_from(COMPONENT_STYLES),
    insertion_direction=st.sampled_from([vec3(0.0, 0.0, -1.0), vec3(0.6, 0.0, -0.8),
                                         vec3(0.0, -0.28, -0.96)]),
    hole_uncertainty_sigma=st.sampled_from([0.01, 0.5, 450.0]))
_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))


@settings(max_examples=60, deadline=None)
@given(styles=st.lists(_STYLED_CONFIGS, min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 2), _SEEDS), max_size=8))
@example(styles=[WorldConfig(hole_uncertainty_sigma=450.0)], rows=[(0, 0), (0, 3), (0, 6)])
@example(styles=[WorldConfig()], rows=[(0, 0), (0, 2**63)])  # numpy makes the pair float
def test_new_worlds_are_their_batches_of_one(styles, rows):
    # a block is one of a few shared config objects at its rows' seeds, as the
    # grid's are; at sigma 450 mm some draws land behind a camera (seeds 3 and
    # 6 here): the block raises the first such row's error
    for index, cfg in enumerate(styles):
        seeds = [seed for k, seed in rows if k % len(styles) == index]
        alone = []
        for seed in seeds:
            reference = _reference_world(cfg, seed)
            try:
                alone.append(new_worlds(cfg, [seed]))
            except InvalidConfig as exc:
                assert str(exc) == reference
                with pytest.raises(InvalidConfig) as batch:
                    new_worlds(cfg, seeds)
                assert str(batch.value) == str(exc)
                break
            assert _hidden_fields(alone[-1]) == reference
            assert _hidden_fields(new_world(replace(cfg, seed=seed))) == reference
        else:
            block = new_worlds(cfg, seeds)
            assert block.config is cfg and block.seed.tolist() == seeds
            for k, one in enumerate(alone):
                for f in fields(one):
                    a, b = getattr(block[k], f.name), getattr(one, f.name)
                    if f.name == "seed":  # an int64, uint64 or object column
                        assert a.tolist() == b.tolist()
                    elif isinstance(a, np.ndarray):
                        assert a.tobytes() == b.tobytes() and a.shape == b.shape, f.name
                    else:
                        assert a == b or a is b, f.name


def _block_outcome(config, seeds):
    """new_worlds' block as each array's dtype, shape and contents, or its InvalidConfig."""
    try:
        block = new_worlds(config, seeds)
    except InvalidConfig as exc:
        return str(exc)
    return [(name, a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes())
            for name, a in vars(block).items() if isinstance(a, np.ndarray)]


_SEED_DTYPES = {"int64": (-2**63, 2**63 - 1), "int32": (-2**31, 2**31 - 1),
                "uint64": (0, 2**64 - 1), "bool": (0, 1)}


@settings(max_examples=60, deadline=None)
@given(seeds=st.sampled_from(list(_SEED_DTYPES)).flatmap(lambda dtype: st.lists(
    st.integers(0, min(_SEED_DTYPES[dtype][1], 2**63 - 1)) | st.integers(*_SEED_DTYPES[dtype]),
    max_size=5).map(lambda values: np.array(values, dtype=dtype))))
@example(seeds=np.array([0, 2**63 - 1, 5, 0], dtype=np.int64))
@example(seeds=np.array([2**31 - 1, 0], dtype=np.int32))
@example(seeds=np.array([0, 2**63 - 1], dtype=np.uint64))
@example(seeds=np.array([3, 2**63], dtype=np.uint64))  # object seeds, as the list's
@example(seeds=np.array([4, -1]))
@example(seeds=np.array([True, False]))
def test_a_seed_array_is_the_list_of_its_seeds(seeds):
    # a 1-D integer array in [0, 2**63) is checked as one array; any other array
    # gets what the seed-by-seed check of its numpy scalars gives: an int's
    # error, a bool's refusal, object seeds at 2**63 and above
    expected = _block_outcome(WorldConfig(), list(seeds))
    assert _block_outcome(WorldConfig(), seeds) == expected
    if seeds.dtype != bool:
        assert _block_outcome(WorldConfig(), seeds.tolist()) == expected


def test_extra_error_radius_not_applied_at_creation():
    # start error comes only from the sigma draws, not the benchmark disc
    w = new_world(WorldConfig(seed=123))
    assert true_inplane_error(w) < 0.1

