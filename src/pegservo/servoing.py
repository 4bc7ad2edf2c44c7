"""In-plane visual servoing loop.

Each step captures one image per camera, predicts the normalized error y,
converts it to a millimeter error along that camera's error direction, and
solves the stacked directions for the in-plane correction by least squares.
The loop runs a fixed number of iterations with no convergence exit.

The camera geometry used here (cfg.cameras, cfg.nominal_hole) is the
*believed* calibration; the world renders with its own cameras. Calibration
error therefore enters the error directions exactly as it would on a real
cell.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfig, write_artifact
from .geometry import denormalize_error, error_direction, reconstruct_error
from .perception import predict
from .sim import TimingModel, WorldState, move_tcp, render, true_inplane_error


@dataclass
class ServoConfig:
    """One regressor per camera plus the believed cell geometry."""

    models: tuple
    cameras: tuple
    insertion_direction: np.ndarray
    nominal_hole: np.ndarray
    n_iters: int = 3
    clamp_mm: float = 2.0
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self):
        if self.n_iters < 1:
            raise InvalidConfig(f"n_iters must be >= 1, got {self.n_iters}")
        if not self.clamp_mm > 0:
            raise InvalidConfig("clamp_mm must be > 0")
        if len(self.cameras) < 2:
            raise InvalidConfig("need at least two cameras")
        if len(self.models) != len(self.cameras):
            raise InvalidConfig(f"{len(self.models)} models for "
                                f"{len(self.cameras)} cameras")
        l = np.asarray(self.insertion_direction, dtype=float)
        if abs(np.linalg.norm(l) - 1.0) > 1e-6:
            raise InvalidConfig("insertion_direction must be a unit vector")
        self.error_directions = tuple(  # once: no code reassigns the geometry
            error_direction(self.insertion_direction, self.nominal_hole - cam.position)
            for cam in self.cameras)


def servo_config_for(world: WorldState, models, n_iters: int = 3,
                     clamp_mm: float = 2.0, timing=None) -> ServoConfig:
    """Build a ServoConfig that trusts the world's own calibration."""
    cfg = world.config
    return ServoConfig(models=tuple(models), cameras=cfg.cameras,
                       insertion_direction=cfg.insertion_direction,
                       nominal_hole=cfg.nominal_hole, n_iters=n_iters,
                       clamp_mm=clamp_mm,
                       timing=timing if timing is not None else TimingModel())


class ServoStep(NamedTuple):
    new_tcp: np.ndarray
    e_hat: np.ndarray
    per_camera: list  # (y, q, u) per camera
    saturated: bool
    ill_conditioned: bool


def servo_step(world: WorldState, cfg: ServoConfig, rng=None) -> ServoStep:
    """One capture-predict-reconstruct-correct cycle.

    The correction is clamped to cfg.clamp_mm (flagged as saturated) to
    guard against wild predictions. World time advances by
    n_cams*(t_capture + t_infer) + t_move.
    """
    per_camera = []
    for j, (cam, u) in enumerate(zip(cfg.cameras, cfg.error_directions)):
        y = predict(cfg.models[j], render(world, j, world.tcp), rng)
        per_camera.append((y, denormalize_error(y, cam), u))
    rec = reconstruct_error(cfg.error_directions, [q for _, q, _ in per_camera])
    e_hat = rec.error
    norm = float(np.linalg.norm(e_hat))
    saturated = norm > cfg.clamp_mm
    if saturated:
        e_hat = e_hat * (cfg.clamp_mm / norm)
    new_tcp = world.tcp + e_hat
    move_tcp(world, new_tcp)
    world.elapsed_time += cfg.timing.servo_step_time(len(cfg.cameras))
    return ServoStep(new_tcp=new_tcp, e_hat=e_hat, per_camera=per_camera,
                     saturated=saturated, ill_conditioned=rec.ill_conditioned)


def visual_servo(world: WorldState, cfg: ServoConfig, rng=None,
                 trace=None):
    """Run exactly cfg.n_iters servo steps; returns (final_tcp, residuals).

    residuals[i] is the true in-plane error after step i (simulation-only
    diagnostic). When trace is a list, one row dict per step is appended
    (iteration, per-camera y/q, correction, residual).
    """
    residuals = []
    for i in range(cfg.n_iters):
        step = servo_step(world, cfg, rng)
        resid = true_inplane_error(world)
        residuals.append(resid)
        if trace is not None:
            row = {"iteration": i}
            for j, (y, q, _u) in enumerate(step.per_camera):
                row[f"y_{j}"] = y
                row[f"q_mm_{j}"] = q
            row["e_hat_x"], row["e_hat_y"], row["e_hat_z"] = (float(c) for c in step.e_hat)
            row["saturated"] = int(step.saturated)
            row["ill_conditioned"] = int(step.ill_conditioned)
            row["residual_mm"] = resid
            trace.append(row)
    return world.tcp, residuals


def write_trace_csv(trace: list, path) -> None:
    if not trace:
        return
    cols = list(trace[0].keys())
    lines = [",".join(cols)]
    for row in trace:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float)
                              else str(row[c]) for c in cols))
    write_artifact(path, "\n".join(lines) + "\n")
