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

from .errors import (AllInsertionsFailed, InvalidConfig, InvalidRadius,
                     ModelsNotDeployed, ShapeMismatch, TooFewInsertions)
from .geometry import camera_to_dict, inplane_norm, normalize_error, scalar_error
from .perception import Dataset, TrainConfig, train
from .search import SearchPattern, generate_pattern
from .servoing import visual_servo
from .sim import (MODE_VS, Episode, TimingModel, WorldConfig, WorldState, check_int,
                  keyed_generators, render_views, spiral_search, true_inplane_error)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CollectionConfig:
    n_insertions: int = 10
    samples_per_insertion: int = 100
    max_offset_mag: float = 1.0
    max_height: float = 1.0
    train_insertions: int = 8

    def __post_init__(self):
        for name in ("n_insertions", "samples_per_insertion", "train_insertions"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if not self.train_insertions < self.n_insertions:
            raise InvalidConfig(f"need train_insertions < n_insertions, got "
                                f"{self.train_insertions}/{self.n_insertions}")
        if not 0 < self.max_offset_mag < np.inf:
            raise InvalidRadius(f"max_offset_mag must be finite and > 0, got "
                                f"{self.max_offset_mag}")
        if not 0 <= self.max_height < np.inf:
            raise InvalidConfig(f"max_height must be finite and >= 0, got {self.max_height}")


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


def collection_pattern(world: WorldConfig, cfg: CollectionConfig,
                       pattern: SearchPattern = None) -> SearchPattern:
    """The pattern a collection in world searches (generate_pattern(tolerance,
    max_offset_mag) unless given), once its highest pose, max_height above the
    approach pose, is in front of every camera, as the approach pose must be."""
    top = world.nominal_hole - (world.hover_height + cfg.max_height) * world.insertion_direction
    if not world.sees(top):
        raise InvalidConfig(f"max_height {cfg.max_height} puts the highest collection "
                            "pose behind a camera")
    return generate_pattern(world.tolerance, cfg.max_offset_mag) if pattern is None else pattern


def collect_dataset(world_factory, cfg: CollectionConfig,
                    pattern: SearchPattern = None) -> Dataset:
    """Gather self-labeled samples from cfg.n_insertions fresh worlds.

    The worlds are built in insertion order, and every one must have world 0's
    cameras, of one resolution, and world 0 pass collection_pattern (the pattern
    when none is given), before any insertion or render. One spiral_search
    inserts them all; failed insertions are logged and skipped. Per inserted
    world: take the successful TCP as the in-plane zero, then draw
    samples_per_insertion random offsets (direction uniform on the circle,
    magnitude ~ U(0, max_offset_mag), height ~ U(0, max_height)) as one array
    from its [seed, 1] stream (one kernel call seeds every inserted world's)
    and render them with one render_views call per camera. Label y is the
    normalized error the servo must cancel: y_j = normalize_error(-offset.u_j,
    cam_j). Images and labels fill (inserted world, sample, camera) arrays,
    flattened in that order.
    """
    worlds = [world_factory(i) for i in range(cfg.n_insertions)]
    cameras = worlds[0].config.cameras
    if len({cam.r for cam in cameras}) != 1:
        raise ShapeMismatch("cameras of one dataset must share a resolution")
    calibration = [camera_to_dict(cam) for cam in cameras]  # compared by value
    for i, world in enumerate(worlds):
        if [camera_to_dict(cam) for cam in world.config.cameras] != calibration:
            raise InvalidConfig(f"collection insertion {i}: cameras differ from world 0's")
    pattern = collection_pattern(worlds[0].config, cfg, pattern)
    outcomes = spiral_search(worlds, pattern, TimingModel())
    for i, outcome in enumerate(outcomes):
        if not outcome.success:
            log.warning("collection insertion %d failed after %d attempts; skipped",
                        i, outcome.attempts)
    kept = np.flatnonzero([outcome.success for outcome in outcomes])
    if len(kept) == 0:
        raise AllInsertionsFailed(f"all {cfg.n_insertions} collection insertions failed")
    k, m, r = cfg.samples_per_insertion, len(cameras), cameras[0].r
    images = np.empty((len(kept), k, m, r, r), dtype=np.float32)
    y, truth_y, q_mm, height_mm = np.empty((4, len(kept), k, m))
    inserted = [worlds[i] for i in kept]
    streams = keyed_generators([[world.config.seed, 1] for world in inserted])
    for n, (world, stream) in enumerate(zip(inserted, streams)):
        # the draws of uniform(0, high) for (theta, mag, height), sample by sample
        theta, mag, height = (stream.random((k, 3))
                              * (2.0 * np.pi, cfg.max_offset_mag, cfg.max_height)).T
        offsets = np.stack([mag * np.cos(theta), mag * np.sin(theta)], axis=1)
        # stacked mat-vecs: per row, one sample's basis @ offset, bit for bit
        moves = (world.basis @ offsets[:, :, None])[:, :, 0]
        tcps = world.tcp + moves - height[:, None] * world.config.insertion_direction
        q_mm[n] = scalar_error(-moves[:, None, :], np.array(world.config.error_directions))
        height_mm[n] = height[:, None]
        for j, cam in enumerate(cameras):  # truth_y comes with the pixels
            y[n, :, j] = normalize_error(q_mm[n, :, j], cam)
            images[n, :, j], truth_y[n, :, j] = render_views([world], j, tcps)
    return Dataset(images=images.reshape(-1, r, r), rows=np.arange(y.size),
                   insertion_id=np.repeat(kept, k * m),
                   camera_index=np.tile(np.arange(m), len(kept) * k), y=y.ravel(),
                   truth_y=truth_y.ravel(), q_mm=q_mm.ravel(),
                   height_mm=height_mm.ravel(), cameras=cameras)


def split_by_insertion(data: Dataset, train_insertions: int, seed: int):
    """Random insertion-level split; no insertion appears in both halves."""
    ids = sorted(data.grouping)
    if len(ids) <= train_insertions:
        raise TooFewInsertions(f"{len(ids)} insertion groups cannot give a "
                               f"{train_insertions}-insertion training split")
    [stream] = keyed_generators([[seed, len(ids)]])
    perm = stream.permutation(ids)
    train_ids = sorted(int(v) for v in perm[:train_insertions])
    val_ids = sorted(int(v) for v in perm[train_insertions:])
    return data.subset(train_ids), data.subset(val_ids)


@dataclass
class TrainResult:
    """Per-camera models trained on one insertion-level split."""

    models: dict  # camera_index -> model
    reports: dict  # camera_index -> TrainReport
    train_ids: list
    val_ids: list

    @property
    def metrics(self) -> dict:
        """camera_index -> evaluate() dict on validation, from the reports."""
        return {j: r.val_metrics for j, r in self.reports.items()}


def train_per_camera(data: Dataset, train_insertions: int, hyper: TrainConfig) -> TrainResult:
    """Split by insertion, then train and validate one model per camera."""
    train_ds, val_ds = split_by_insertion(data, train_insertions, hyper.seed)
    models, reports = {}, {}
    for j in range(len(data.cameras)):
        models[j], reports[j] = train(train_ds.by_camera(j), val_ds.by_camera(j), hyper)
    return TrainResult(models=models, reports=reports, train_ids=sorted(train_ds.grouping),
                       val_ids=sorted(val_ds.grouping))


@dataclass
class ConfigureResult(TrainResult):
    """Everything configure produced, for audit."""

    decision: str
    gate: DeploymentGate
    dataset_size: int


def configure(world_factory, cfg: CollectionConfig, hyper: TrainConfig,
              gate: DeploymentGate = None) -> ConfigureResult:
    """Collect, split, train one model per camera, and gate deployment.

    n insertions make n factory calls: world 0 is built first, for its
    tolerance, and then collected from, with collection_pattern's pattern.
    decision = "deploy" iff every model's validation mae_mm is within the
    gate threshold; otherwise "collect_more". gate=None means a threshold of
    half the world tolerance.
    """
    world0 = world_factory(0)
    if gate is None:
        gate = DeploymentGate(max_val_mae_mm=world0.config.tolerance / 2.0)
    data = collect_dataset(lambda i: world0 if i == 0 else world_factory(i), cfg)
    fit = train_per_camera(data, cfg.train_insertions, hyper)
    ok = all(m["mae_mm"] <= gate.max_val_mae_mm for m in fit.metrics.values())
    return ConfigureResult(**vars(fit), decision="deploy" if ok else "collect_more",
                           gate=gate, dataset_size=len(data))


MODES = ("spiral_only", "servo_then_spiral")


def insert(world: WorldState, mode: str, servo_cfg, pattern: SearchPattern,
           timing: TimingModel) -> Episode:
    """One insertion episode in the given mode: insert_batch of one."""
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "servo_then_spiral" and servo_cfg is None:
        raise ModelsNotDeployed("servo_then_spiral needs one deployed model per camera")
    return insert_batch([world], [servo_cfg if mode == "servo_then_spiral" else None],
                        pattern, timing)[0]


def insert_batch(worlds, servo_cfgs, pattern: SearchPattern, timing: TimingModel) -> list:
    """Insertion episodes of a batch of worlds, searched by one spiral_search.

    A world whose servo_cfg is None gives spiral_search's novs episode. The
    others are first servoed together by one visual_servo call and give vs
    episodes: time_s covers both phases, the true and the retrospective errors
    are measured from the original start, and the post-servo retrospective
    error is the search's.
    """
    before = {}  # world index -> start TCP, elapsed time, true error
    for n, (world, cfg) in enumerate(zip(worlds, servo_cfgs, strict=True)):
        if cfg is not None:
            before[n] = world.tcp.copy(), world.elapsed_time, true_inplane_error(world)
    visual_servo([worlds[n] for n in before], [servo_cfgs[n] for n in before])
    episodes = spiral_search(worlds, pattern, timing)
    for n, (start_tcp, t0, true_err) in before.items():
        world, sp = worlds[n], episodes[n]
        retro = (inplane_norm(world.tcp - start_tcp, world.config.insertion_direction)
                 if sp.success else np.nan)
        episodes[n] = replace(sp, mode=MODE_VS, retrospective_error_mm=float(retro),
                              true_error_mm=true_err, time_s=world.elapsed_time - t0,
                              post_servo_retrospective_error_mm=sp.retrospective_error_mm)
    return episodes
