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

from .errors import InvalidConfig, ModelsNotDeployed, NonFinitePrediction, csv_text, write_artifact
from .geometry import denormalize_error, reconstruct_error, scalar_error
from .perception import predict_views
from .sim import (TimingModel, WorldConfig, Worlds, check_int, move_tcps, render_views,
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


def servo_config_for(world: Worlds, models, n_iters: int = 3, timing=None) -> ServoConfig:
    """Build a ServoConfig that trusts the world's own calibration."""
    return ServoConfig(models=tuple(models), calibration=world.config, n_iters=n_iters,
                       timing=timing if timing is not None else TimingModel())


class ServoStep(NamedTuple):  # a row per world (visual_servo's: per world, then per step)
    y: np.ndarray  # predicted normalized error, one per camera
    q_mm: np.ndarray  # y in mm along the camera's error direction
    e_hat: np.ndarray  # the applied correction, 3 per step
    saturated: np.ndarray
    ill_conditioned: np.ndarray


def servo_step(world: Worlds, cfg: ServoConfig) -> ServoStep:
    """One capture-predict-reconstruct-correct cycle: servo_steps of a block of one."""
    return servo_steps(world, cfg)


def servo_steps(worlds: Worlds, cfg: ServoConfig) -> ServoStep:
    """One capture-predict-reconstruct-correct cycle of each world of a block under one
    ServoConfig, the same for a world alone or in any block.

    One render_views call draws every world's scene and, per camera, one predict_views
    call predicts its views; a NaN or inf one raises NonFinitePrediction before any move.
    The corrections are denormalized, clamped to CLAMP_MM (flagged as saturated) and moved
    as arrays; only the reconstruct_error solve runs per world. A failing move raises
    ConstraintViolation, its world's TCP unchanged and the worlds before it moved.
    """
    cams = cfg.calibration.cameras
    pixels, truth_y = render_views(worlds, worlds.tcp)
    if pixels.shape[1] < len(cams):
        raise InvalidConfig(f"camera index {pixels.shape[1]} out of range")
    y, q_mm = np.empty((2, len(worlds), len(cams)))
    for j, (model, cam) in enumerate(zip(cfg.models, cams)):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite y raises below
            y[:, j] = predict_views(model, pixels[:, j], truth_y[:, j])
        if not np.isfinite(y[:, j]).all():
            k = np.argmin(np.isfinite(y[:, j]))
            raise NonFinitePrediction(f"camera {j} predicted {y[k, j]} for seed {worlds.seed[k]}")
        q_mm[:, j] = denormalize_error(y[:, j], cam)
    e_hat, ill = np.empty((len(worlds), 3)), np.empty(len(worlds), dtype=bool)
    for k, q in enumerate(q_mm):  # the per-world solve (an empty block has none)
        e_hat[k], ill[k] = reconstruct_error(cfg.calibration.error_directions, q)
    norms = np.sqrt(scalar_error(e_hat, e_hat))  # each np.linalg.norm, bit for bit
    saturated = norms > CLAMP_MM
    e_hat[saturated] *= (CLAMP_MM / norms[saturated])[:, None]
    move_tcps(worlds, worlds.tcp + e_hat)
    return ServoStep(y, q_mm, e_hat, saturated, ill)


def visual_servo(worlds: Worlds, cfg: ServoConfig) -> tuple:
    """Run cfg.n_iters servo steps of a block's worlds in lockstep, one servo_steps call
    per iteration, the same alone or in any block. Returns (steps, residuals): a ServoStep
    of (n, n_iters, ...) arrays, and (n, n_iters) residuals, residuals[k, i] the true
    in-plane error of world k after step i (simulation-only diagnostic)."""
    steps, residuals = [], []
    for _ in range(cfg.n_iters):
        steps.append(servo_steps(worlds, cfg))
        residuals.append(true_inplane_errors(worlds))
    return (ServoStep(*(np.stack(field, axis=1) for field in zip(*steps))),
            np.stack(residuals, axis=1))


def write_trace_csv(steps: ServoStep, residuals, path) -> None:
    """A block of one's visual_servo run, a row per step: y, q per camera, e_hat, flags."""
    y, q_mm, e_hat, saturated, ill = (field[0].tolist() for field in steps)
    per_camera = [f"{c}_{j}" for j in range(len(y[0])) for c in ("y", "q_mm")]
    cols = ["iteration", *per_camera, "e_hat_x", "e_hat_y", "e_hat_z", "saturated",
            "ill_conditioned", "residual_mm"]
    rows = [(i, *(v for pair in zip(y[i], q_mm[i]) for v in pair), *e_hat[i], saturated[i],
             ill[i], resid) for i, resid in enumerate(residuals[0].tolist())]
    write_artifact(path, csv_text(cols, rows))
