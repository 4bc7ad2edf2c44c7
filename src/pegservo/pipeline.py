"""Autonomous configuration lifecycle.

Spiral search bootstraps labeled data with no human annotation: each fresh
world is inserted by search alone, the successful position is taken as the
in-plane zero, and offsets sampled around it become self-labeled training
images. Models are trained per camera, validated on held-out insertions,
and deployed only when every model clears the gate.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AllInsertionsFailed, InvalidConfig, ModelsNotDeployed,
                     ShapeMismatch, TooFewInsertions)
from .geometry import camera_to_dict, inplane_component, normalize_error
from .perception import Dataset, TrainConfig, train
from .search import SearchPattern, generate_pattern
from .servoing import visual_servo
from .sim import (MODE_VS, Episode, TimingModel, WorldState, render_batch,
                  spiral_insert, true_inplane_error)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CollectionConfig:
    n_insertions: int = 10
    samples_per_insertion: int = 100
    max_offset_mag: float = 1.0
    max_height: float = 1.0
    train_insertions: int = 8

    def __post_init__(self):
        if self.n_insertions < 1 or self.samples_per_insertion < 1:
            raise InvalidConfig("counts must be >= 1")
        if not (0 < self.train_insertions < self.n_insertions):
            raise InvalidConfig(
                f"need 0 < train_insertions < n_insertions, got "
                f"{self.train_insertions}/{self.n_insertions}")
        if not (self.max_offset_mag > 0 and self.max_height >= 0):
            raise InvalidConfig("offset/height ranges must be positive")


@dataclass(frozen=True)
class DeploymentGate:
    """Validation-error threshold deciding whether servoing is enabled.

    configure's default threshold is half the insertion tolerance, so a
    deployed model leaves the corrected error well inside the first spiral
    attempt.
    """

    max_val_mae_mm: float

    def __post_init__(self):
        if not self.max_val_mae_mm >= 0:
            raise InvalidConfig("gate threshold must be >= 0")


def collect_dataset(world_factory, cfg: CollectionConfig,
                    pattern: SearchPattern) -> Dataset:
    """Gather self-labeled samples from cfg.n_insertions fresh worlds.

    Per world: spiral-insert, take the successful TCP as the in-plane zero,
    then draw samples_per_insertion random offsets (direction uniform on the
    circle, magnitude ~ U(0, max_offset_mag), height ~ U(0, max_height)) as
    one array and render them with one render_batch per camera. Label y is
    the normalized error the servo must cancel:
    y_j = normalize_error(-offset.u_j, cam_j). Failed insertions are logged
    and skipped. The images fill one preallocated buffer in sample order;
    rows past the last successful insertion's stay unused. Each world is
    built once, and every world must have world 0's cameras.
    """
    k, n, timing, blocks = cfg.samples_per_insertion, 0, TimingModel(), []
    for i in range(cfg.n_insertions):
        world = world_factory(i)
        if i == 0:
            cameras, m = world.config.cameras, len(world.config.cameras)
            calibration = [camera_to_dict(cam) for cam in cameras]  # compared by value
            if len({cam.r for cam in cameras}) != 1:
                raise ShapeMismatch("cameras of one dataset must share a resolution")
            images = np.empty((cfg.n_insertions * k * m, cameras[0].r, cameras[0].r),
                              dtype=np.float32)
        elif [camera_to_dict(cam) for cam in world.config.cameras] != calibration:
            raise InvalidConfig(f"collection insertion {i}: cameras differ from world 0's")
        outcome = spiral_insert(world, world.tcp, pattern, timing)
        if not outcome.success:
            log.warning("collection insertion %d failed after %d attempts; skipped",
                        i, outcome.attempts)
            continue
        # the draws of uniform(0, high) for (theta, mag, height), sample by sample
        theta, mag, height = (world.rng.random((k, 3))
                              * (2.0 * np.pi, cfg.max_offset_mag, cfg.max_height)).T
        offsets = np.stack([mag * np.cos(theta), mag * np.sin(theta)], axis=1)
        # stacked mat-vecs and dot products: per row, the kernels of one
        # sample's basis @ offset and np.dot, so the bits are the per-sample ones
        moves = (world.basis @ offsets[:, :, None])[:, :, 0]
        tcps = world.tcp + moves - height[:, None] * world.config.insertion_direction
        U = np.array(world.config.error_directions)
        q = ((-moves)[:, None, None, :] @ U[:, :, None])[:, :, 0, 0]  # (k, m)
        y = np.stack([normalize_error(qj, cam) for qj, cam in zip(q.T, cameras)], axis=1)
        # one row per view, in sample order: insertion_id, camera_index, y,
        # truth_y, q_mm, height_mm
        block = np.stack(np.broadcast_arrays(i, np.arange(m), y, np.nan, q, height[:, None]),
                         axis=-1).reshape(k * m, 6)
        for j in range(m):  # truth_y comes with the pixels
            images[n + j:n + k * m:m], block[j::m, 3] = render_batch(world, j, tcps)
        blocks.append(block)
        n += k * m
    if n == 0:
        raise AllInsertionsFailed(
            f"all {cfg.n_insertions} collection insertions failed")
    ins, cam_index, y, truth_y, q_mm, height_mm = np.concatenate(blocks).T
    return Dataset(images=images, rows=np.arange(n),
                   insertion_id=ins.astype(np.int64),
                   camera_index=cam_index.astype(np.int64), y=y,
                   truth_y=truth_y, q_mm=q_mm, height_mm=height_mm,
                   cameras=cameras)


def split_by_insertion(data: Dataset, train_insertions: int, seed: int):
    """Random insertion-level split; no insertion appears in both halves."""
    ids = sorted(data.grouping)
    if len(ids) <= train_insertions:
        raise TooFewInsertions(f"{len(ids)} insertion groups cannot give a "
                               f"{train_insertions}-insertion training split")
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(ids)]))
    perm = rng.permutation(ids)
    train_ids = sorted(int(v) for v in perm[:train_insertions])
    val_ids = sorted(int(v) for v in perm[train_insertions:])
    return data.subset(train_ids), data.subset(val_ids)


@dataclass
class TrainResult:
    """Per-camera models trained on one insertion-level split."""

    models: dict  # camera_index -> model
    reports: dict  # camera_index -> TrainReport
    metrics: dict  # camera_index -> evaluate() dict on validation
    train_ids: list
    val_ids: list


def train_per_camera(data: Dataset, train_insertions: int,
                     hyper: TrainConfig) -> TrainResult:
    """Split by insertion, then train and validate one model per camera."""
    train_ds, val_ds = split_by_insertion(data, train_insertions, hyper.seed)
    models, reports = {}, {}
    for j in range(len(data.cameras)):
        models[j], reports[j] = train(train_ds.by_camera(j), val_ds.by_camera(j), hyper)
    return TrainResult(models=models, reports=reports,
                       metrics={j: r.val_metrics for j, r in reports.items()},
                       train_ids=sorted(train_ds.grouping),
                       val_ids=sorted(val_ds.grouping))


@dataclass
class ConfigureResult(TrainResult):
    """Everything configure produced, for audit."""

    decision: str
    gate: DeploymentGate
    dataset_size: int


def configure(world_factory, cfg: CollectionConfig, hyper: TrainConfig,
              gate: DeploymentGate = None,
              pattern: SearchPattern = None) -> ConfigureResult:
    """Collect, split, train one model per camera, and gate deployment.

    decision = "deploy" iff every model's validation mae_mm is within the
    gate threshold; otherwise "collect_more". gate=None means a threshold
    of half the world tolerance.
    """
    if gate is None or pattern is None:
        tolerance = world_factory(0).config.tolerance
    if gate is None:
        gate = DeploymentGate(max_val_mae_mm=tolerance / 2.0)
    if pattern is None:
        pattern = generate_pattern(tolerance, cfg.max_offset_mag)
    data = collect_dataset(world_factory, cfg, pattern)
    fit = train_per_camera(data, cfg.train_insertions, hyper)
    ok = all(m["mae_mm"] <= gate.max_val_mae_mm for m in fit.metrics.values())
    return ConfigureResult(**vars(fit), decision="deploy" if ok else "collect_more",
                           gate=gate, dataset_size=len(data))


MODES = ("spiral_only", "servo_then_spiral")


def insert(world: WorldState, mode: str, servo_cfg, pattern: SearchPattern,
           timing: TimingModel) -> Episode:
    """One full insertion episode in the given mode.

    spiral_only is spiral_insert's novs episode. servo_then_spiral runs the
    servo loop first, then searches from the corrected position, and
    returns a vs episode: time_s covers both phases, the true and the
    retrospective errors are measured from the original start position,
    and the post-servo retrospective error is the search's own.
    """
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "spiral_only":
        return spiral_insert(world, world.tcp, pattern, timing)
    if servo_cfg is None or any(m is None for m in servo_cfg.models):
        raise ModelsNotDeployed("servo_then_spiral needs one deployed model "
                                "per camera")
    start_tcp, t0 = world.tcp.copy(), world.elapsed_time
    true_err = true_inplane_error(world)
    visual_servo(world, servo_cfg)
    sp = spiral_insert(world, world.tcp, pattern, timing)
    l = world.config.insertion_direction
    retro = (np.linalg.norm(inplane_component(world.tcp - start_tcp, l))
             if sp.success else np.nan)
    return replace(sp, mode=MODE_VS, retrospective_error_mm=float(retro),
                   true_error_mm=true_err, time_s=world.elapsed_time - t0,
                   post_servo_retrospective_error_mm=sp.retrospective_error_mm)
