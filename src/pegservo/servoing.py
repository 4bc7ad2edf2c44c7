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
from .geometry import denormalize_error, reconstruct_error, scalar_error
from .perception import predict_views
from .sim import (TimingModel, WorldConfig, WorldState, check_int, move_tcps, render_views,
                  true_inplane_errors)

CLAMP_MM = 2.0  # largest correction one step applies; a longer one is saturated


@dataclass(frozen=True)
class ServoConfig:
    """One deployed regressor per camera plus the believed cell calibration."""

    models: tuple
    calibration: WorldConfig
    n_iters: int = 3
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self):
        object.__setattr__(self, "n_iters", check_int("n_iters", self.n_iters, 1))
        if len(self.models) != len(self.calibration.cameras):
            raise InvalidConfig(f"{len(self.models)} models for "
                                f"{len(self.calibration.cameras)} cameras")
        if any(m is None for m in self.models):
            raise ModelsNotDeployed("servoing needs one deployed model per camera")

    @property
    def time_s(self) -> float:
        """A servo's simulated seconds: with no convergence exit, n_iters steps summed from 0."""
        return sum([self.timing.servo_step_time(len(self.calibration.cameras))] * self.n_iters)


def servo_config_for(world: WorldState, models, n_iters: int = 3, timing=None) -> ServoConfig:
    """Build a ServoConfig that trusts the world's own calibration."""
    return ServoConfig(models=tuple(models), calibration=world.config, n_iters=n_iters,
                       timing=timing if timing is not None else TimingModel())


class ServoStep(NamedTuple):
    y: tuple  # predicted normalized error, one per camera
    q_mm: tuple  # y in mm along the camera's error direction
    e_hat: np.ndarray
    saturated: bool
    ill_conditioned: bool


def servo_step(world: WorldState, cfg: ServoConfig) -> ServoStep:
    """One capture-predict-reconstruct-correct cycle: servo_steps of one world."""
    return servo_steps([world], cfg)[0]


def servo_steps(worlds, cfg: ServoConfig) -> list:
    """One capture-predict-reconstruct-correct cycle of each world, worlds of one
    batch_config under one ServoConfig, the same for a world alone or in any batch.

    One render_views call draws every world's scene and, per camera, one predict_views
    call predicts its views. The corrections are denormalized, clamped to CLAMP_MM
    (flagged as saturated) to guard against wild predictions, and moved as arrays; only
    the reconstruct_error solve runs per world. A failing move raises ConstraintViolation,
    its world's TCP unchanged and the worlds before it moved.
    """
    tcps = np.array([world.tcp for world in worlds])
    cams = cfg.calibration.cameras
    pixels, truth_y = render_views(worlds, tcps)
    if pixels.shape[1] < len(cams):
        raise InvalidConfig(f"camera index {pixels.shape[1]} out of range")
    y, q_mm = np.empty((2, len(worlds), len(cams)))
    for j, (model, cam) in enumerate(zip(cfg.models, cams)):
        y[:, j] = predict_views(model, pixels[:, j], truth_y[:, j])
        q_mm[:, j] = denormalize_error(y[:, j], cam)
    recs = [reconstruct_error(cfg.calibration.error_directions, q) for q in q_mm]
    e_hat = np.array([rec.error for rec in recs])
    norms = np.sqrt(scalar_error(e_hat, e_hat))  # each np.linalg.norm, bit for bit
    saturated = norms > CLAMP_MM
    e_hat[saturated] *= (CLAMP_MM / norms[saturated])[:, None]
    move_tcps(worlds, tcps + e_hat)
    return [ServoStep(tuple(yk), tuple(qk), ek, sat, rec.ill_conditioned) for yk, qk, ek, sat, rec
            in zip(y.tolist(), q_mm.tolist(), e_hat, saturated.tolist(), recs)]


def visual_servo(worlds, cfg: ServoConfig) -> list:
    """Run cfg.n_iters servo steps of worlds of one batch_config in lockstep, one
    servo_steps call per iteration; returns per world (steps, residuals), the same
    alone or in any batch. residuals[i] is the true in-plane error after step i
    (simulation-only diagnostic)."""
    steps, residuals = [], []
    for _ in range(cfg.n_iters):
        steps.append(servo_steps(worlds, cfg))
        residuals.append(true_inplane_errors(worlds).tolist())
    return [(list(s), list(r)) for s, r in zip(zip(*steps), zip(*residuals))]


def write_trace_csv(steps, residuals, path) -> None:
    """One row per step: per-camera y and q, the correction, flags, residual."""
    per_camera = [f"{c}_{j}" for j in range(len(steps[0].y)) for c in ("y", "q_mm")]
    cols = ["iteration", *per_camera, "e_hat_x", "e_hat_y", "e_hat_z", "saturated",
            "ill_conditioned", "residual_mm"]
    rows = [(i, *(v for pair in zip(step.y, step.q_mm) for v in pair), *step.e_hat,
             step.saturated, step.ill_conditioned, resid)
            for i, (step, resid) in enumerate(zip(steps, residuals))]
    write_artifact(path, csv_text(cols, rows))
