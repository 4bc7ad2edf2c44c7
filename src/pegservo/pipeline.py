"""Autonomous configuration lifecycle.

Spiral search bootstraps labeled data with no human annotation: each fresh
world is inserted by search alone, the successful position is taken as the
in-plane zero, and offsets sampled around it become self-labeled training
images. Models are trained per camera, validated on held-out insertions,
and deployed only when every model clears the gate.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (AllInsertionsFailed, InvalidConfig, InvalidRadius,
                     ModelsNotDeployed, ShapeMismatch, TooFewInsertions)
from .geometry import inplane_norm, normalize_error, scalar_error
from .perception import Dataset, TrainConfig, train
from .search import SearchPattern, generate_pattern
from .servoing import visual_servo
from .sim import (BENCH_MODES, MODE_VS, Episode, Episodes, TimingModel, WorldConfig, Worlds,
                  check_int, keyed_generators, render_views, spiral_search, true_inplane_errors)

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


_RENDER_ROWS = 128  # collection samples per render_views call: bounds its float64 scenes


def collect_dataset(world_factory, cfg: CollectionConfig,
                    pattern: SearchPattern = None) -> Dataset:
    """Gather self-labeled samples from cfg.n_insertions fresh worlds.

    The factory's blocks of one are built in insertion order and joined into one block
    (sim.Worlds.join: a factory may build one config per seed) whose config passes
    collection_pattern (the pattern when none is given), before any insertion or render.
    One spiral_search inserts them all; failed insertions are logged and skipped. Per
    inserted world: take the successful TCP as the in-plane zero, then draw
    samples_per_insertion random offsets (direction uniform on the circle, magnitude ~
    U(0, max_offset_mag), height ~ U(0, max_height)) as one array from its [seed, 1]
    stream (one kernel call seeds every inserted world's). Every camera's view of each
    sample is rendered, _RENDER_ROWS samples per render_views call. Label y is the
    normalized error the servo must cancel: y_j = normalize_error(-offset.u_j, cam_j).
    Images and labels fill (inserted world, sample, camera) arrays, flattened in order.
    """
    worlds = Worlds.join([world_factory(i) for i in range(cfg.n_insertions)])
    config = worlds.config
    cameras = config.cameras
    pattern = collection_pattern(config, cfg, pattern)
    outcomes = spiral_search(worlds, pattern, TimingModel()).columns
    failed = ~outcomes["success"]
    if failed.any():
        log.warning("collection insertions %s failed after %s attempts; skipped",
                    np.flatnonzero(failed).tolist(), outcomes["attempts"][failed].tolist())
    kept = np.flatnonzero(outcomes["success"])
    if len(kept) == 0:
        raise AllInsertionsFailed(f"all {cfg.n_insertions} collection insertions failed")
    k, m, r = cfg.samples_per_insertion, len(cameras), cameras[0].r
    inserted = worlds[np.repeat(kept, k)]  # a row per sample
    seeds = worlds.seed[kept]
    # the draws of uniform(0, high) for (theta, mag, height), sample by sample
    draws = np.concatenate([stream.random((k, 3)) for stream in keyed_generators(
        np.stack([seeds, 0 * seeds + 1], axis=1))])
    theta, mag, height = (draws * (2.0 * np.pi, cfg.max_offset_mag, cfg.max_height)).T
    offsets = np.stack([mag * np.cos(theta), mag * np.sin(theta)], axis=1)
    # stacked mat-vecs: per row, one sample's basis @ offset, bit for bit
    moves = (worlds.basis @ offsets[:, :, None])[:, :, 0]
    tcps = inserted.tcp + moves - height[:, None] * config.insertion_direction
    q_mm = scalar_error(-moves[:, None, :], np.array(config.error_directions))
    images, truth_y = np.empty((len(inserted), m, r, r), np.float32), np.empty((len(inserted), m))
    for rows in range(0, len(inserted), _RENDER_ROWS):
        views = slice(rows, rows + _RENDER_ROWS)
        images[views], truth_y[views] = render_views(inserted[views], tcps[views])
    y = np.stack([normalize_error(q_mm[:, j], cam) for j, cam in enumerate(cameras)], axis=-1)
    return Dataset(images=images.reshape(-1, r, r), rows=np.arange(y.size),
                   insertion_id=np.repeat(kept, k * m),
                   camera_index=np.tile(np.arange(m), len(inserted)), y=y.ravel(),
                   truth_y=truth_y.ravel(), q_mm=q_mm.ravel(),
                   height_mm=np.repeat(height, m), cameras=cameras)


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


def insert(world: Worlds, mode: str, servo_cfg, pattern: SearchPattern,
           timing: TimingModel) -> Episode:
    """One insertion episode of a block of one in the given mode: insert_batch of one."""
    if mode not in MODES:
        raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
    return insert_batch(world, servo_cfg, [mode == "servo_then_spiral"], pattern, timing)[0]


def insert_batch(worlds: Worlds, servo_cfg, servoed, pattern: SearchPattern,
                 timing: TimingModel) -> Episodes:
    """Insertion episodes of a block's worlds, searched by one spiral_search.

    The rows that servoed flags (one bool per world) are first servoed together, as their
    rows' block, under servo_cfg, one ServoConfig (None only if no row is servoed), by one
    visual_servo call and give vs episodes, written into the search's columns: time_s adds
    servo_cfg.time_s, the true and the retrospective errors are measured from the original
    start, and the post-servo retrospective error is the search's. The other rows give
    spiral_search's novs episodes.
    """
    if len(servoed) != len(worlds):
        raise ShapeMismatch(f"{len(servoed)} servo flags for {len(worlds)} worlds")
    vs = np.flatnonzero(servoed)
    if not len(vs):
        return spiral_search(worlds, pattern, timing)
    if servo_cfg is None:
        raise ModelsNotDeployed("servoed rows need one deployed model per camera")
    servo = worlds[vs]
    starts, true_errors = servo.tcp.copy(), true_inplane_errors(servo)
    visual_servo(servo, servo_cfg)
    worlds.tcp[vs] = servo.tcp
    episodes = spiral_search(worlds, pattern, timing)
    col = episodes.columns
    moved = inplane_norm(worlds.tcp[vs] - starts, worlds.config.insertion_direction)
    col["mode"][vs] = BENCH_MODES.index(MODE_VS)
    col["post_servo_retrospective_error_mm"][vs] = col["retrospective_error_mm"][vs]
    col["retrospective_error_mm"][vs] = np.where(col["success"][vs], moved, np.nan)
    col["true_error_mm"][vs] = true_errors
    col["time_s"][vs] += servo_cfg.time_s
    return episodes
