"""Servo loop: exactness, clamping, noise robustness, timing."""

import math

import numpy as np
import pytest

from pegservo.errors import ConstraintViolation, InvalidConfig
from pegservo.geometry import aimed_camera, vec3
from pegservo.perception import InputSpec, OracleModel, RidgeModel
from pegservo.servoing import (ServoConfig, servo_config_for, servo_step,
                               visual_servo, write_trace_csv)
from pegservo.sim import (TimingModel, WorldConfig, move_tcp, new_world,
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
    _, residuals = visual_servo(w, cfg)
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
        servo_step(w, cfg, rng=rng)
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
        cfg = ServoConfig(models=ORACLES, cameras=believed,
                          insertion_direction=L, nominal_hole=w.nominal_hole,
                          n_iters=1)
        e0 = true_inplane_error(w)
        servo_step(w, cfg)
        assert true_inplane_error(w) < 0.3 * e0, seed


def test_more_iterations_do_not_hurt():
    models = (OracleModel(noise_sigma=0.01), OracleModel(noise_sigma=0.01))

    def mean_final(n_iters):
        finals = []
        for seed in range(50):
            rng = np.random.default_rng(30_000 + seed)
            w = _world_with_error([0.8, -0.6], seed=seed)
            cfg = servo_config_for(w, models, n_iters=n_iters)
            _, residuals = visual_servo(w, cfg, rng=rng)
            finals.append(residuals[-1])
        return float(np.mean(finals))

    assert mean_final(3) <= mean_final(1)


def test_servo_timing_exact():
    w = _world_with_error([0.5, 0.0])
    cfg = servo_config_for(w, ORACLES)  # 3 iters, 2 cameras
    visual_servo(w, cfg)
    # 3 * (2*(0.083 + 0.067) + 0.133) = 1.299
    assert w.elapsed_time == pytest.approx(1.299, abs=1e-9)


def test_servo_stays_in_plane():
    w = _world_with_error([1.0, 0.7], seed=3)
    z_before = float(np.dot(w.tcp, L))
    cfg = servo_config_for(w, ORACLES)
    visual_servo(w, cfg)
    assert float(np.dot(w.tcp, L)) == pytest.approx(z_before, abs=1e-12)
    assert w.max_inplane_violation <= 1e-9


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
    ok = 0
    for seed in range(50):
        rng = np.random.default_rng(40_000 + seed)
        theta = rng.uniform(0, 2 * np.pi)
        w = new_world(WorldConfig(component_style="led", seed=77_000 + seed))
        move_tcp(w, w.tcp + w.basis @ np.array([math.cos(theta), math.sin(theta)]))
        cfg = servo_config_for(w, models)
        _, residuals = visual_servo(w, cfg)
        ok += residuals[-1] <= 0.05
    assert ok >= 45  # >= 90% of 50


def test_servo_config_validation():
    w = _world_with_error([0.1, 0.0])
    with pytest.raises(InvalidConfig):
        servo_config_for(w, ORACLES, n_iters=0)
    with pytest.raises(InvalidConfig):
        servo_config_for(w, ORACLES, clamp_mm=0.0)
    with pytest.raises(InvalidConfig):
        ServoConfig(models=(ORACLES[0],), cameras=w.config.cameras,
                    insertion_direction=L, nominal_hole=w.nominal_hole)


def test_trace_csv(tmp_path):
    w = _world_with_error([0.6, 0.2])
    cfg = servo_config_for(w, ORACLES)
    trace = []
    visual_servo(w, cfg, trace=trace)
    assert len(trace) == 3
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("iteration,y_0,q_mm_0,y_1,q_mm_1,e_hat_x")
    assert len(lines) == 4


def test_nan_prediction_fails_fast_without_moving():
    w = _world_with_error([0.4, -0.2])
    r = w.config.cameras[0].r
    nan_model = RidgeModel(weights=np.zeros(r * r), bias=float("nan"), lam=1.0,
                           spec=InputSpec(r=r, robust=False, feat_mean=np.zeros(r * r),
                                          feat_std=np.ones(r * r)))
    cfg = servo_config_for(w, (nan_model, nan_model), n_iters=1)
    before, elapsed = w.tcp.copy(), w.elapsed_time
    with pytest.raises(ConstraintViolation):
        servo_step(w, cfg)
    assert np.array_equal(w.tcp, before)
    assert w.elapsed_time == elapsed
