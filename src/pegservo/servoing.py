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
from .perception import predict_views
from .sim import (TimingModel, WorldConfig, WorldState, check_int, move_tcp, render_views,
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
        object.__setattr__(self, "n_iters", check_int("n_iters", self.n_iters, 1))
        if len(self.models) != len(self.calibration.cameras):
            raise InvalidConfig(f"{len(self.models)} models for "
                                f"{len(self.calibration.cameras)} cameras")
        if any(m is None for m in self.models):
            raise ModelsNotDeployed("servoing needs one deployed model per camera")


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
    return servo_steps([world], [cfg])[0]


def servo_steps(worlds, cfgs) -> list:
    """One capture-predict-reconstruct-correct cycle of each world under its
    ServoConfig, the same for a world alone or in any batch.

    Per camera, one render_views call draws every world's view (of one
    resolution) and one predict_views call per model predicts its views. Per
    world, the correction is clamped to CLAMP_MM (flagged as saturated) to
    guard against wild predictions, and world time advances by
    n_cams*(t_capture + t_infer) + t_move. A world whose move fails raises
    ConstraintViolation, its TCP and time unchanged.
    """
    tcps = np.array([world.tcp for world in worlds])
    ys = [[] for _ in worlds]  # per world, its cameras' predicted y in order
    for j in range(max((len(cfg.models) for cfg in cfgs), default=0)):
        views = [k for k, cfg in enumerate(cfgs) if j < len(cfg.models)]
        pixels, truth_y = render_views([worlds[k] for k in views], j, tcps[views])
        models = [cfgs[k].models[j] for k in views]
        for model in {id(m): m for m in models}.values():
            rows = [row for row, m in enumerate(models) if m is model]
            predictions = predict_views(model, pixels[rows], truth_y[rows]).tolist()
            for row, y in zip(rows, predictions):
                ys[views[row]].append(y)
    steps = []
    for world, cfg, y in zip(worlds, cfgs, map(tuple, ys), strict=True):
        cams = cfg.calibration.cameras
        q_mm = tuple(denormalize_error(yj, cam) for yj, cam in zip(y, cams))
        rec = reconstruct_error(cfg.calibration.error_directions, q_mm)
        e_hat = rec.error
        norm = float(np.linalg.norm(e_hat))
        saturated = norm > CLAMP_MM
        if saturated:
            e_hat = e_hat * (CLAMP_MM / norm)
        move_tcp(world, world.tcp + e_hat)
        world.elapsed_time += cfg.timing.servo_step_time(len(cams))
        steps.append(ServoStep(y, q_mm, e_hat, saturated, rec.ill_conditioned))
    return steps


def visual_servo(worlds, cfgs) -> list:
    """Run each world's cfg.n_iters servo steps in lockstep, one servo_steps call
    per iteration over the worlds not yet done; returns per world (steps,
    residuals), the same alone or in any batch. residuals[i] is the true
    in-plane error after step i (simulation-only diagnostic)."""
    runs = [([], []) for _ in worlds]
    for i in range(max((cfg.n_iters for cfg in cfgs), default=0)):
        live = [k for k, cfg in enumerate(cfgs) if cfg.n_iters > i]
        steps = servo_steps([worlds[k] for k in live], [cfgs[k] for k in live])
        for k, step in zip(live, steps):
            runs[k][0].append(step)
            runs[k][1].append(true_inplane_error(worlds[k]))
    return runs


def write_trace_csv(steps, residuals, path) -> None:
    """One row per step: per-camera y and q, the correction, flags, residual."""
    per_camera = [f"{c}_{j}" for j in range(len(steps[0].y)) for c in ("y", "q_mm")]
    cols = ["iteration", *per_camera, "e_hat_x", "e_hat_y", "e_hat_z", "saturated",
            "ill_conditioned", "residual_mm"]
    rows = [(i, *(v for pair in zip(step.y, step.q_mm) for v in pair), *step.e_hat,
             step.saturated, step.ill_conditioned, resid)
            for i, (step, resid) in enumerate(zip(steps, residuals))]
    write_artifact(path, csv_text(cols, rows))
