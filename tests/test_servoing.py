"""Servo loop: exactness, clamping, noise robustness, timing."""

import math
from dataclasses import replace

import numpy as np
import pytest

import pegservo.servoing
from pegservo.errors import ConstraintViolation, InvalidConfig, IoError, NonFinitePrediction
from pegservo.geometry import aimed_camera, vec3
from pegservo.perception import InputSpec, OracleModel, RidgeModel
from pegservo.servoing import (ServoConfig, servo_config_for, servo_step, servo_steps,
                               visual_servo, write_trace_csv)
from pegservo.sim import (TimingModel, WorldConfig, Worlds, move_tcp, new_world, new_worlds,
                          true_inplane_error)

L = vec3(0.0, 0.0, -1.0)
ORACLES = (OracleModel(), OracleModel())


def _world_with_error(err_xy, seed=0, **kw):
    w = new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                              grasp_uncertainty_sigma=0.0, seed=seed, **kw))
    move_tcp(w, w.tcp + w.basis @ np.asarray(err_xy, dtype=float))
    return w


def test_one_step_cancels_any_error_below_clamp():
    for err in ([0.3, 0.0], [0.0, -1.2], [1.2, 1.2], [-1.41, -1.41]):
        w = _world_with_error(err)
        assert np.linalg.norm(err) <= 2.0
        cfg = servo_config_for(w, ORACLES, n_iters=1)
        step = servo_step(w, cfg)
        assert not step.saturated
        assert not step.ill_conditioned
        assert true_inplane_error(w) <= 1e-9, err


def test_three_iterations_residuals_all_zero():
    w = _world_with_error([0.9, -0.4])
    cfg = servo_config_for(w, ORACLES)
    _, [residuals] = visual_servo(w, cfg)
    assert len(residuals) == 3
    assert all(r <= 1e-9 for r in residuals)


def test_clamp_limits_step_and_flags():
    w = _world_with_error([4.0, 3.0])  # 5 mm off
    cfg = servo_config_for(w, ORACLES, n_iters=1)
    before = w.tcp.copy()
    step = servo_step(w, cfg)
    assert step.saturated
    assert np.linalg.norm(w.tcp - before) == pytest.approx(2.0, abs=1e-9)
    assert true_inplane_error(w) == pytest.approx(3.0, abs=1e-6)
    # a second step is within the clamp and finishes the job
    step2 = servo_step(w, cfg)
    assert step2.saturated  # still 3.0 > 2.0
    step3 = servo_step(w, cfg)
    assert not step3.saturated
    assert true_inplane_error(w) <= 1e-9


def test_noisy_oracle_residual_bound():
    # after one step the residual reflects sigma, not the initial error
    models = (OracleModel(noise_sigma=0.001), OracleModel(noise_sigma=0.001))
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        theta = rng.uniform(0, 2 * np.pi)
        w = _world_with_error([math.cos(theta), math.sin(theta)], seed=seed)
        cfg = servo_config_for(w, models, n_iters=1)
        servo_step(w, cfg)
        assert true_inplane_error(w) < 0.2 * 1.0, seed


def test_contraction_under_miscalibration():
    # believed camera positions rotated 2 degrees about l: each step must
    # still contract the error by better than 0.3x
    ang = math.radians(2.0)
    c, s = math.cos(ang), math.sin(ang)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        theta = rng.uniform(0, 2 * np.pi)
        w = _world_with_error([math.cos(theta), math.sin(theta)], seed=seed)
        believed = tuple(
            aimed_camera(R @ cam.position, w.nominal_hole, L, cam.f, cam.r)
            for cam in w.config.cameras)
        cfg = ServoConfig(models=ORACLES,
                          calibration=replace(w.config, cameras=believed),
                          n_iters=1)
        e0 = true_inplane_error(w)
        servo_step(w, cfg)
        assert true_inplane_error(w) < 0.3 * e0, seed


def test_more_iterations_do_not_hurt():
    # a calibrated noisy oracle lands at the noise floor in one step, and later
    # steps stay there: each camera reads its error with std sigma*r*z/f mm, so
    # the residual is Rayleigh, mean floor*sqrt(pi/2); every iteration's mean
    # over 50 worlds lies within 3 standard errors of it, and does not diverge
    sigma = 0.01
    models = (OracleModel(noise_sigma=sigma), OracleModel(noise_sigma=sigma))
    worlds = Worlds.join([_world_with_error([0.8, -0.6], seed=seed) for seed in range(50)])
    _, residuals = visual_servo(worlds, servo_config_for(worlds, models))
    floor = {sigma * cam.r * cam.z / cam.f for cam in worlds.config.cameras}
    assert len(floor) == 1
    floor = floor.pop()  # 0.32 mm
    mean, sd = floor * math.sqrt(math.pi / 2.0), floor * math.sqrt((4.0 - math.pi) / 2.0)
    for after in np.mean(residuals, axis=0):
        assert abs(after - mean) <= 3.0 * sd / math.sqrt(50), (after, mean)


def test_iterations_reduce_miscalibration_error():
    # believed camera positions rotated 2 degrees about l: one step leaves
    # part of the error, which later steps shrink toward the noise floor
    ang = math.radians(2.0)
    c, s = math.cos(ang), math.sin(ang)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    models = (OracleModel(noise_sigma=0.001), OracleModel(noise_sigma=0.001))
    worlds = Worlds.join([_world_with_error([0.8, -0.6], seed=seed) for seed in range(50)])
    config = worlds.config
    believed = tuple(aimed_camera(R @ cam.position, config.nominal_hole, L, cam.f, cam.r)
                     for cam in config.cameras)
    cfg = ServoConfig(models=models, calibration=replace(config, cameras=believed))
    _, residuals = visual_servo(worlds, cfg)
    after_1, _, after_3 = np.mean(residuals, axis=0)
    assert after_3 < after_1


def test_servo_timing_exact():
    # the loop has no convergence exit: a servo's time is its config's, its
    # steps summed from 0 in order
    cfg = servo_config_for(_world_with_error([0.5, 0.0]), ORACLES)  # 3 iters, 2 cameras
    step = 2 * (0.083 + 0.067) + 0.133
    assert cfg.time_s == 0.0 + step + step + step
    # 3 * (2*(0.083 + 0.067) + 0.133) = 1.299
    assert cfg.time_s == pytest.approx(1.299, abs=1e-9)


def test_servo_stays_in_plane():
    w = _world_with_error([1.0, 0.7], seed=3)
    z_before = float(np.dot(w.tcp[0], L))
    cfg = servo_config_for(w, ORACLES)
    visual_servo(w, cfg)
    assert float(np.dot(w.tcp[0], L)) == pytest.approx(z_before, abs=1e-12)


def test_near_parallel_views_flagged():
    target = vec3(0, 0, 0)
    p0 = vec3(500.0, 0.0, 500.0)
    eps = 1e-7
    p1 = vec3(500.0 * math.cos(eps), 500.0 * math.sin(eps), 500.0)
    cams = (aimed_camera(p0, target, L, 1000.0, 64),
            aimed_camera(p1, target, L, 1000.0, 64))
    w = _world_with_error([0.4, 0.0], cameras=cams)
    cfg = servo_config_for(w, ORACLES, n_iters=1)
    step = servo_step(w, cfg)
    assert step.ill_conditioned


def test_trained_models_servo_within_tolerance(led_ridge):
    # fresh worlds, 1 mm start errors, per-camera ridge regressors
    models = tuple(led_ridge[j][0] for j in (0, 1))
    worlds = []
    for seed in range(50):
        rng = np.random.default_rng(40_000 + seed)
        theta = rng.uniform(0, 2 * np.pi)
        w = new_world(WorldConfig(component_style="led", seed=77_000 + seed))
        move_tcp(w, w.tcp + w.basis @ np.array([math.cos(theta), math.sin(theta)]))
        worlds.append(w)
    worlds = Worlds.join(worlds)
    _, residuals = visual_servo(worlds, servo_config_for(worlds, models))
    ok = np.count_nonzero(residuals[:, -1] <= 0.05)
    assert ok >= 45  # >= 90% of 50


def _servo_run(worlds, k, steps, residuals):
    """World k's servo run of a block as comparable bytes: its steps, residuals and end
    state."""
    return ([field[k].tobytes() for field in steps], residuals[k].tobytes(),
            worlds.tcp[k].tobytes())


def test_visual_servo_is_batch_independent(led_ridge):
    # per ServoConfig (models and n_iters), its worlds of mixed start errors
    # servoed in one batch, each run exactly as it runs alone
    ridge = tuple(led_ridge[j][0] for j in (0, 1))
    noisy = (OracleModel(noise_sigma=0.01), OracleModel(noise_sigma=0.01))
    configs = [(ridge, 3), (noisy, 1), (ORACLES, 2), (ridge, 1), (noisy, 3), (ridge, 2),
               (ORACLES, 3)]

    def start(seed, models, n_iters):
        w = new_world(WorldConfig(component_style="led", seed=300 + seed))
        move_tcp(w, w.tcp + w.basis @ (0.15 * seed * np.array([1.0, -0.5])))
        return w, servo_config_for(w, models, n_iters=n_iters)

    for k, (models, n_iters) in enumerate(configs):
        block = [(seed, models, n_iters) for seed in (k, k + 7, k + 14)]
        worlds = Worlds.join([start(*spec)[0] for spec in block])
        steps, residuals = visual_servo(worlds, start(*block[0])[1])
        assert residuals.shape == steps.saturated.shape == (len(block), n_iters)
        for k, spec in enumerate(block):
            alone, alone_cfg = start(*spec)
            alone_run = visual_servo(alone, alone_cfg)
            assert (_servo_run(worlds, k, steps, residuals)
                    == _servo_run(alone, 0, *alone_run))


@pytest.mark.parametrize("name", ["n_iters"])
def test_servo_config_integer_field_is_an_integer(name):
    base = dict(models=ORACLES, calibration=WorldConfig())
    for bad in (2.5, "3", True, None):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            ServoConfig(**base, **{name: bad})
    with pytest.raises(InvalidConfig, match=f"{name} must be >= 1, got 0"):
        ServoConfig(**base, **{name: 0})
    assert type(getattr(ServoConfig(**base, **{name: np.int64(3)}), name)) is int


def test_servo_config_validation():
    w = _world_with_error([0.1, 0.0])
    with pytest.raises(InvalidConfig):
        servo_config_for(w, ORACLES, n_iters=0)
    with pytest.raises(InvalidConfig):
        ServoConfig(models=(ORACLES[0],), calibration=w.config)
    # a calibration of a camera the world's scene lacks is refused before any move
    third = aimed_camera(vec3(-300.0, 0.0, 300.0), vec3(0.0, 0.0, 0.0), L, f=1000.0, r=64)
    cfg = ServoConfig(models=ORACLES + (OracleModel(),),
                      calibration=WorldConfig(cameras=w.config.cameras + (third,)))
    start = w.tcp.copy()
    with pytest.raises(InvalidConfig, match="^camera index 2 out of range$"):
        servo_step(w, cfg)
    assert w.tcp.tobytes() == start.tobytes()


def test_trace_csv(tmp_path):
    w = _world_with_error([0.6, 0.2])
    cfg = servo_config_for(w, ORACLES)
    steps, residuals = visual_servo(w, cfg)
    assert steps.y.shape == (1, 3, 2) and residuals.shape == (1, 3)
    path = tmp_path / "trace.csv"
    write_trace_csv(steps, residuals, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,y_0,q_mm_0,y_1,q_mm_1,e_hat_x,e_hat_y,e_hat_z,"
                        "saturated,ill_conditioned,residual_mm")
    assert len(lines) == 4
    assert "np." not in path.read_text()
    with pytest.raises(IoError):
        write_trace_csv(steps, residuals, tmp_path / "missing" / "trace.csv")


def test_nan_prediction_fails_fast_without_moving():
    w = _world_with_error([0.4, -0.2])
    r = w.config.cameras[0].r
    nan_model = RidgeModel(weights=np.zeros(r * r), bias=float("nan"), lam=1.0,
                           spec=InputSpec(r=r, robust=False, feat_mean=np.zeros(r * r),
                                          feat_std=np.ones(r * r)))
    cfg = servo_config_for(w, (nan_model, nan_model), n_iters=1)
    before = w.tcp.copy()
    with pytest.raises(NonFinitePrediction, match=r"^camera 0 predicted nan for seed 0$"):
        servo_step(w, cfg)
    assert np.array_equal(w.tcp, before)


def _ridge(weights, r):
    return RidgeModel(weights=weights, bias=0.0, lam=1.0, spec=InputSpec(
        r=r, robust=False, feat_mean=np.zeros(r * r), feat_std=np.ones(r * r)))


@pytest.mark.parametrize("weight, shown", [(math.nan, "nan"), (1e308, "inf")])
def test_a_non_finite_prediction_fails_as_one_before_any_move(weight, shown):
    # the 1e308 product overflows to inf with no RuntimeWarning (tier-1 makes one an error)
    block = new_worlds(WorldConfig(), [7, 3, 11])
    r = block.config.cameras[0].r
    cfg = ServoConfig((OracleModel(), _ridge(np.full(r * r, weight), r)), block.config)
    before = block.tcp.copy()
    with pytest.raises(NonFinitePrediction, match=rf"^camera 1 predicted {shown} for seed 7$"):
        servo_steps(block, cfg)
    assert np.array_equal(block.tcp, before)


def test_a_non_finite_prediction_names_the_first_bad_world(monkeypatch):
    block = new_worlds(WorldConfig(), [7, 3, 11, 2**63 + 5])
    ys = iter([np.zeros(4), np.array([0.1, 0.2, -np.inf, np.nan])])
    monkeypatch.setattr(pegservo.servoing, "predict_views", lambda *args: next(ys))
    before = block.tcp.copy()
    with pytest.raises(NonFinitePrediction, match=r"^camera 1 predicted -inf for seed 11$"):
        servo_steps(block, ServoConfig(ORACLES, block.config))
    assert np.array_equal(block.tcp, before)


def test_an_empty_block_servo_step_is_empty_arrays():
    # like spiral_search's empty batch: each field has no rows and its row shape
    cfg = ServoConfig(ORACLES, WorldConfig())
    step = servo_steps(new_worlds(WorldConfig(), []), cfg)
    assert [a.shape for a in step] == [(0, 2), (0, 2), (0, 3), (0,), (0,)]
    assert [a.dtype for a in step] == [np.float64] * 3 + [bool] * 2


def test_an_empty_block_servo_is_empty_arrays():
    cfg = ServoConfig(ORACLES, WorldConfig(), n_iters=4)
    steps, residuals = visual_servo(new_worlds(WorldConfig(), []), cfg)
    assert [a.shape for a in steps] == [(0, 4, 2), (0, 4, 2), (0, 4, 3), (0, 4), (0, 4)]
    assert residuals.shape == (0, 4) and residuals.dtype == np.float64
