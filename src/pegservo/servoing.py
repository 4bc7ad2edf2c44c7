"""In-plane visual servoing loop.

Each step captures one image per camera, predicts the normalized error y,
converts it to a millimeter error along that camera's error direction, and
solves the stacked directions for the in-plane correction by least squares.
The loop runs a fixed number of iterations with no convergence exit.

The camera geometry used here (cfg.calibration) is the *believed*
calibration; the world renders with its own cameras. Calibration error
therefore enters the error directions exactly as it would on a real cell.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, ModelsNotDeployed, csv_text, write_artifact
from .geometry import denormalize_error, reconstruct_error
from .perception import predict
from .sim import (TimingModel, WorldConfig, WorldState, move_tcp, render,
                  true_inplane_error)

CLAMP_MM = 2.0  # largest correction one step applies; a longer one is saturated


@dataclass(frozen=True)
class ServoConfig:
    """One deployed regressor per camera plus the believed cell calibration."""

    models: tuple
    calibration: WorldConfig
    n_iters: int = 3
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self):
        if self.n_iters < 1:
            raise InvalidConfig(f"n_iters must be >= 1, got {self.n_iters}")
        if len(self.models) != len(self.calibration.cameras):
            raise InvalidConfig(f"{len(self.models)} models for "
                                f"{len(self.calibration.cameras)} cameras")
        if any(m is None for m in self.models):
            raise ModelsNotDeployed("servoing needs one deployed model per camera")


def servo_config_for(world: WorldState, models, n_iters: int = 3,
                     timing=None) -> ServoConfig:
    """Build a ServoConfig that trusts the world's own calibration."""
    return ServoConfig(models=tuple(models), calibration=world.config,
                       n_iters=n_iters,
                       timing=timing if timing is not None else TimingModel())


class ServoStep(NamedTuple):
    y: tuple  # predicted normalized error, one per camera
    q_mm: tuple  # y in mm along the camera's error direction
    e_hat: np.ndarray
    saturated: bool
    ill_conditioned: bool


def servo_step(world: WorldState, cfg: ServoConfig) -> ServoStep:
    """One capture-predict-reconstruct-correct cycle.

    The correction is clamped to CLAMP_MM (flagged as saturated) to guard
    against wild predictions. World time advances by
    n_cams*(t_capture + t_infer) + t_move.
    """
    cams = cfg.calibration.cameras
    y = tuple(predict(model, render(world, j, world.tcp))
              for j, model in enumerate(cfg.models))
    q_mm = tuple(denormalize_error(yj, cam) for yj, cam in zip(y, cams))
    rec = reconstruct_error(cfg.calibration.error_directions, q_mm)
    e_hat = rec.error
    norm = float(np.linalg.norm(e_hat))
    saturated = norm > CLAMP_MM
    if saturated:
        e_hat = e_hat * (CLAMP_MM / norm)
    move_tcp(world, world.tcp + e_hat)
    world.elapsed_time += cfg.timing.servo_step_time(len(cams))
    return ServoStep(y, q_mm, e_hat, saturated, rec.ill_conditioned)


def visual_servo(world: WorldState, cfg: ServoConfig):
    """Run exactly cfg.n_iters servo steps; returns (steps, residuals).

    residuals[i] is the true in-plane error after step i (simulation-only
    diagnostic).
    """
    steps, residuals = [], []
    for _ in range(cfg.n_iters):
        steps.append(servo_step(world, cfg))
        residuals.append(true_inplane_error(world))
    return steps, residuals


def write_trace_csv(steps, residuals, path) -> None:
    """One row per step: per-camera y and q, the correction, flags, residual."""
    per_camera = [f"{c}_{j}" for j in range(len(steps[0].y)) for c in ("y", "q_mm")]
    cols = ["iteration", *per_camera, "e_hat_x", "e_hat_y", "e_hat_z", "saturated",
            "ill_conditioned", "residual_mm"]
    rows = [(i, *(v for pair in zip(step.y, step.q_mm) for v in pair), *step.e_hat,
             step.saturated, step.ill_conditioned, resid)
            for i, (step, resid) in enumerate(zip(steps, residuals))]
    write_artifact(path, csv_text(cols, rows))
