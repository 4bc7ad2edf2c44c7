"""Deterministic simulated robot cell: hidden hole, TCP motion, rendering.

A world hides the true hole position and the in-hand grasp offset behind a
seed. The TCP moves in the plane perpendicular to the insertion direction;
insertion attempts and camera renders are the only ways to learn anything
about the hidden state. Every simulated second is accounted through
TimingModel so wall-clock comparisons between strategies are reproducible.
"""

import json
import math
import typing
import warnings
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConstraintViolation, DegenerateView, InvalidConfig,
                     InvalidTolerance, ShapeMismatch, read_artifact, write_artifact)
from .geometry import (CameraModel, aimed_camera, error_direction, inplane_basis,
                       inplane_component, inplane_norm, normalize_error,
                       project, scalar_error, unit, vec3)
from .streams import keyed_generators

COMPONENT_STYLES = ("pin_header", "led", "cap_small", "dsub", "cap_large")

HOLE_INTENSITY = 0.1
PIN_INTENSITY = 0.5
NOISE_SIGMA = 0.02
CAMERA_F, CAMERA_R = 1000.0, 64  # a camera's focal length and image side (px) unless set

# Glyph edges blend over this many pixels. Soft wide edges keep sub-pixel
# glyph motion close to linear in pixel space, which the closed-form
# regressor relies on; the static hole keeps a crisper edge.
EDGE_WIDTH = 2.2
HOLE_EDGE_WIDTH = 1.0

_INPLANE_TOL = 1e-9


@dataclass(frozen=True)
class TimingModel:
    """Simulated durations (seconds) of the primitive cell operations.

    t_attempt covers one insertion stroke plus retract; t_capture one image
    acquisition; t_infer one regressor evaluation; t_move one in-plane
    repositioning.
    """

    t_attempt: float = 0.25
    t_capture: float = 0.083
    t_infer: float = 0.067
    t_move: float = 0.133

    def __post_init__(self):
        for f in fields(self):
            t = getattr(self, f.name)
            if not (t >= 0 and np.isfinite(t)):
                raise InvalidConfig(f"{f.name} must be finite and >= 0, got {t}")
            object.__setattr__(self, f.name, float(t))  # a numpy scalar too

    def servo_step_time(self, n_cameras: int) -> float:
        return n_cameras * (self.t_capture + self.t_infer) + self.t_move


def default_cameras(nominal_hole, l, f: float = CAMERA_F, r: int = CAMERA_R,
                    distance: float = 500.0) -> tuple:
    """Two calibrated cameras 90 degrees apart in azimuth, 45 deg elevation."""
    nominal_hole = np.asarray(nominal_hole, dtype=float)
    B = inplane_basis(l)
    up = -unit(l)
    c = distance / np.sqrt(2.0)
    cams = []
    for azim in (B[:, 0], B[:, 1]):
        pos = nominal_hole + c * azim + c * up
        cams.append(aimed_camera(pos, nominal_hole, l, f=f, r=r))
    return tuple(cams)


def check_int(name: str, value, low: int) -> int:
    """value as an int if it is an integer >= low (a numpy one too, never a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True)
class WorldConfig:
    """Everything that defines an experiment world.

    tolerance is the insertion clearance (mm): an attempt succeeds iff the
    in-plane peg-hole distance is <= tolerance. It and the hole/grasp
    uncertainty sigmas of the hidden draws are below every camera's depth, and
    sees() holds for the nominal hole and for the approach pose above it;
    new_world adds no start error (the benchmark's is BenchConfig.error_disc_radius).
    peg_intensity=None renders no peg marking at all (contrast ablation for
    gate tests); otherwise it must be finite.

    A camera is a CameraModel, its config_to_dict form, or the shorthand
    {"position": ..., "f": CAMERA_F, "r": CAMERA_R} for a camera aimed at the
    nominal hole. No cameras means default_cameras. The cameras share one resolution.
    """

    tolerance: float = 0.1
    hole_uncertainty_sigma: float = 0.01
    grasp_uncertainty_sigma: float = 0.01
    insertion_direction: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, -1.0))
    cameras: tuple = ()
    component_style: str = "led"
    seed: int = 0
    nominal_hole: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    hover_height: float = 0.5
    peg_intensity: float | None = 0.9

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise InvalidTolerance(f"tolerance must be finite and > 0, got {self.tolerance}")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        if self.peg_intensity is not None and not math.isfinite(self.peg_intensity):
            raise InvalidConfig(f"peg_intensity must be finite, got {self.peg_intensity}")
        if self.component_style not in COMPONENT_STYLES:
            raise InvalidConfig(f"unknown component_style {self.component_style!r}; "
                                f"expected one of {COMPONENT_STYLES}")
        l = np.asarray(self.insertion_direction, dtype=float)
        slack = abs(math.hypot(*l) - 1.0)  # hypot: no overflow at 1e300
        if not slack <= 1e-6:  # a NaN fails too
            raise InvalidConfig(f"insertion_direction must be a finite unit vector, got {l}")
        # unit() may move a unit vector an ulp: keep it, so a rebuilt config is the same
        object.__setattr__(self, "insertion_direction", l if slack <= 1e-15 else unit(l))
        hole = np.asarray(self.nominal_hole, dtype=float)
        if not np.isfinite(hole).all():
            raise InvalidConfig(f"nominal_hole must be finite, got {hole}")
        object.__setattr__(self, "nominal_hole", hole)
        if self.cameras:
            cams = tuple(self._camera(c) for c in self.cameras)
        else:
            try:
                cams = default_cameras(self.nominal_hole, self.insertion_direction)
            except (DegenerateView, InvalidConfig) as exc:  # their offsets rounded away
                raise InvalidConfig(f"nominal_hole {hole} is too far out: the default "
                                    "cameras round onto it") from exc
        if len(cams) < 2:
            raise InvalidConfig("need at least two cameras")
        if len({cam.r for cam in cams}) != 1:  # a scene is one (n, m, r, r) array
            raise InvalidConfig(f"cameras must share one resolution, got r = {[c.r for c in cams]}")
        depth = min(cam.z for cam in cams)  # a draw past a camera's depth can land behind it
        for name, below in (("tolerance", depth), ("hole_uncertainty_sigma", depth),
                            ("grasp_uncertainty_sigma", depth), ("hover_height", math.inf)):
            value = getattr(self, name)
            if not 0 <= value < below:
                raise InvalidConfig(f"{name} must be >= 0 and below {below}, got {value}")
        object.__setattr__(self, "cameras", cams)
        axes = np.stack([cam.optical_axis for cam in cams], axis=1)
        offsets = np.array([cam.optical_axis @ cam.position for cam in cams])
        object.__setattr__(self, "_sight", (axes, offsets))
        if not self.sees(self.nominal_hole):
            raise InvalidConfig("camera does not face the work area")
        if not self.sees(self.nominal_hole - self.hover_height * self.insertion_direction):
            raise InvalidConfig(f"hover_height {self.hover_height} puts the approach "
                                "pose behind a camera")

    def sees(self, points) -> bool:
        """Whether every point, one (3,) or (k, 3) rows, is in front of every
        camera, as project requires: p @ axes[:, j] > offsets[j] for each j."""
        axes, offsets = self._sight
        return bool((np.asarray(points, dtype=float) @ axes > offsets).all())

    def sees_disc(self, radius: float, centers=None) -> bool:
        """Whether sees() holds on the in-plane disc of this radius around each center, (k, 3)
        rows (default: the approach pose): per camera at its point of least depth,
        center - radius u/|u| (u: its axis in-plane)."""
        toward = inplane_component(self._sight[0].T, self.insertion_direction)  # per camera
        norms = np.linalg.norm(toward, axis=1, keepdims=True)
        pose = self.nominal_hole - self.hover_height * self.insertion_direction
        rims = (np.reshape(pose if centers is None else centers, (-1, 1, 3))
                - radius * toward / np.where(norms > 0, norms, 1.0))
        return self.sees(rims.reshape(-1, 3))

    def check_rounding(self, reach: float) -> None:
        """Refuse, naming nominal_hole, a world where an in-plane TCP move within
        reach mm of the approach pose can round out of plane past move_tcp's limit."""
        # A move is the difference of two computed points, start + basis @ offset.
        # Each coordinate of each rounds by at most half an ulp of its magnitude,
        # at most |approach pose_i| + reach, and nearby points subtract exactly:
        # l . move is off by at most sum_i |l_i| ulp(|pose_i| + reach). The basis,
        # basis @ offset, a subtraction near 0 and the dot with l each add a few
        # eps of the move (at most 2 reach long): 20 eps reach bounds them.
        pose = self.nominal_hole - self.hover_height * self.insertion_direction
        bound = (float(np.abs(self.insertion_direction) @ np.spacing(np.abs(pose) + reach))
                 + 20.0 * np.finfo(float).eps * reach)
        if not bound <= _INPLANE_TOL:
            raise InvalidConfig(f"nominal_hole {self.nominal_hole.tolist()} is too far out: "
                                f"in-plane moves there can round {bound:.3g} mm out of "
                                f"plane, above {_INPLANE_TOL:g} mm")

    @cached_property
    def error_directions(self) -> tuple:
        """Each camera's error direction u, computed once per config."""
        return tuple(error_direction(self.insertion_direction, self.nominal_hole - cam.position)
                     for cam in self.cameras)

    @cached_property
    def crop_shifts(self) -> tuple:
        """Per camera, the pixel shift putting the nominal hole at the crop center."""
        return tuple(cam.r / 2.0 - np.array(project(cam, self.nominal_hole))
                     for cam in self.cameras)

    def _camera(self, cam) -> CameraModel:
        if isinstance(cam, CameraModel):
            return cam
        if "orientation" in cam:
            return CameraModel(**cam)
        return aimed_camera(np.asarray(cam["position"], dtype=float),
                            self.nominal_hole, self.insertion_direction,
                            f=cam.get("f", CAMERA_F), r=cam.get("r", CAMERA_R))


@lru_cache(maxsize=16)
def _shared_basis(direction: bytes) -> np.ndarray:
    """inplane_basis of the direction with these bytes, read-only and shared."""
    basis = inplane_basis(np.frombuffer(direction))
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=16)
def _pattern_moves(pattern, basis: bytes, l: bytes) -> tuple:
    """The moves m_k = offsets @ basis.T of a pattern (read-only), for a (3, 2) basis's and a
    direction's bytes, their path's largest |(m_k - m_k-1) . l| from 0 and back, and the
    largest |m_k,i|: the pattern's part of spiral_search's path bound, computed once."""
    moves = pattern.offsets @ np.frombuffer(basis).reshape(3, 2).T
    moves.flags.writeable = False
    steps = np.diff(moves, axis=0, prepend=0.0, append=0.0) @ np.frombuffer(l)
    return moves, np.abs(steps).max(), np.abs(moves).max(initial=0.0)


_ROWS = ("seed", "true_hole", "grasp_offset", "tcp", "background", "hole_radius_px")


@dataclass(eq=False)
class Worlds:
    """A block of n insertion experiments of one WorldConfig as arrays; a world is a block
    of one. true_hole and grasp_offset are hidden draws; code under test must not read them
    (diagnostics like true_inplane_errors may). seed keys a world's streams: hidden draws,
    render noise, collection offsets. The batched calls move the tool center point tcp in
    place; the in-hand peg sits at tcp + basis @ grasp_offset."""

    config: WorldConfig
    basis: np.ndarray  # (3, 2) in-plane basis, shared read-only per direction
    seed: np.ndarray  # (n,) int64, or object (Python integers) once one is 2**63 or more
    true_hole: np.ndarray  # (n, 3)
    grasp_offset: np.ndarray  # (n, 2) coefficients in the in-plane basis
    tcp: np.ndarray  # (n, 3)
    background: np.ndarray  # (n,) the appearance draws that style the renders
    hole_radius_px: np.ndarray  # (n,)
    nominal_hole = property(lambda self: self.config.nominal_hole)
    __iter__ = None  # not a list of worlds: a loop over a block's rows would move copies

    def __len__(self):
        return len(self.seed)

    def __getitem__(self, rows) -> "Worlds":
        """A copy of these rows (an index, a slice, a mask); an integer gives a block of one."""
        rows = np.arange(len(self))[rows].reshape(-1)
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROWS})

    @classmethod
    def join(cls, blocks) -> "Worlds":
        """The blocks' rows in order, under block 0's config, which every block has or one
        equal to it but for the seed (a per-index factory builds one config per seed; no
        batched call reads config.seed), or InvalidConfig names the first that differs."""
        config = blocks[0].config
        for k, block in enumerate(blocks):
            if block.config is not config and (config_to_dict(block.config) | {"seed": 0}
                                               != config_to_dict(config) | {"seed": 0}):
                raise InvalidConfig(f"world {k}'s config differs from world 0's: "
                                    "a batch is one WorldConfig (seed aside)")
        return replace(blocks[0], **{name: np.concatenate([getattr(b, name) for b in blocks])
                                     for name in _ROWS})


def new_world(config: WorldConfig) -> Worlds:
    """One config's world at the config's seed: new_worlds of one."""
    return new_worlds(config, [config.seed])


def new_worlds(config: WorldConfig, seeds) -> Worlds:
    """The config's block of a world per seed, an integer >= 0: draw the hidden state
    (the hole's and the grasp's offsets, then the appearance, from the seed's scene
    stream) and park the TCP hover_height above the nominal hole along -l. The first
    draw that puts the true hole, or the peg at the approach pose, behind a camera
    raises InvalidConfig naming the seed and the drawn offset. A 1-D integer array of
    seeds in [0, 2**63) is checked as one array, any other input one seed at a time."""
    vetted = (isinstance(seeds, np.ndarray) and seeds.ndim == 1 and seeds.dtype.kind in "iu"
              and (not len(seeds) or 0 <= seeds.min() and seeds.max() < 1 << 63))
    seeds = seeds if vetted else [check_int("seed", seed, 0) for seed in seeds]
    seeds = np.array(seeds, dtype=np.int64 if vetted or max(seeds, default=0) < 1 << 63 else object)
    draws = np.empty((len(seeds), 6))
    for row, scene in zip(draws, keyed_generators(np.stack([seeds, 0 * seeds], axis=1))):
        scene.standard_normal(out=row[:4])  # the same as two standard_normal(2)
        scene.random(out=row[4:])  # uniform(a, b) is a + (b - a) * random()
    holes2 = config.hole_uncertainty_sigma * draws[:, :2]
    grasps2 = config.grasp_uncertainty_sigma * draws[:, 2:4]
    basis = _shared_basis(config.insertion_direction.tobytes())
    nominals = np.tile(config.nominal_hole, (len(seeds), 1))
    # each row of a product with the shared basis is basis @ offset, bit for bit
    true_holes = nominals + (basis @ holes2[:, :, None])[:, :, 0]
    tcps = nominals - config.hover_height * config.insertion_direction
    pegs = tcps + (basis @ grasps2[:, :, None])[:, :, 0]  # at the approach pose
    if not config.sees(np.concatenate([true_holes, pegs])):
        k = next(k for k, points in enumerate(zip(true_holes, pegs)) if not config.sees(points))
        what, drawn = (("draws the hole", holes2[k]) if not config.sees(true_holes[k])
                       else ("puts the peg", grasps2[k]))
        raise InvalidConfig(f"seed {seeds[k]} {what} behind a camera "
                            f"(drawn offset {drawn.round(3).tolist()} mm)")
    # Background level and hole finish vary per world (lighting, board); the grasped part
    # has a fixed geometry and grasp rotation, so the glyph shape is deterministic.
    return Worlds(config, basis, seeds, true_holes, grasps2, tcps,
                  0.4 + (0.6 - 0.4) * draws[:, 4], 3.6 + (4.4 - 3.6) * draws[:, 5])


def peg_position(worlds: Worlds, tcps=None) -> np.ndarray:
    """(n, 3): each world's peg, tcp + basis @ grasp_offset, at tcps (default its own TCP)."""
    return ((worlds.tcp if tcps is None else tcps)
            + (worlds.basis @ worlds.grasp_offset[:, :, None])[:, :, 0])


def true_inplane_errors(worlds: Worlds) -> np.ndarray:
    """Each world's hidden in-plane peg-to-hole distance (mm) at its TCP, (n,)."""
    return inplane_norm(worlds.true_hole - peg_position(worlds), worlds.config.insertion_direction)


def move_tcp(world: Worlds, new_tcp) -> None:
    """move_tcps of a block of one to a (3,) or (1, 3) target."""
    move_tcps(world, np.reshape(new_tcp, (1, 3)))


def move_tcps(worlds: Worlds, targets) -> None:
    """Reposition each world's TCP, in place, to its row of (n, 3) targets within the plane
    perpendicular to l, with one stacked check. Out-of-plane motion or a non-finite target
    raises ConstraintViolation for the first failing row, the rows before it moved."""
    targets = np.asarray(targets, dtype=float)
    finite = np.isfinite(targets).all(axis=1)
    moves = np.where(finite[:, None], targets - worlds.tcp, 0.0)  # no nan from an inf
    worst = np.abs(scalar_error(moves, worlds.config.insertion_direction))
    ok = finite & (worst <= _INPLANE_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        worlds.tcp[:k] = targets[:k]
        if not finite[k]:
            raise ConstraintViolation(f"TCP target {targets[k]} is not finite")
        _check_inplane(float(worst[k]))
    worlds.tcp[:] = targets


def _check_inplane(worst: float) -> None:
    """Reject a move whose largest out-of-plane component is above the tolerance."""
    if not worst <= _INPLANE_TOL:
        raise ConstraintViolation(f"TCP move has out-of-plane component {worst:.3e} mm")


@dataclass(frozen=True)
class Observation:
    """One rendered camera image plus ground truth for oracle predictors.

    truth_y is the normalized in-plane error along the camera's error
    direction, exactly what an ideal regressor would output.
    """

    pixels: np.ndarray  # (r, r) float32 in [0, 1]
    truth_y: float


# Each style's peg glyph as discs painted in order over the hole: (du, dv)
# offset from the peg center in pixels, radius, and intensity (None: the
# world's peg_intensity).
_GLYPHS = {
    "pin_header": [(0.0, 0.0, 6.0, None)]
    + [(pu, 0.0, 1.8, PIN_INTENSITY) for pu in (-3.2, 0.0, 3.2)],
    "dsub": [(0.0, 0.0, 7.8, None)]
    + [(pu, pv, 1.8, PIN_INTENSITY) for pu in (-2.8, 2.8) for pv in (-2.8, 2.8)],
    "led": [(0.0, 0.0, 6.5, None), (0.0, 0.0, 2.6, 0.45)],
    "cap_small": [(0.0, 0.0, 5.5, None)]
    + [(pu, 0.0, 1.8, PIN_INTENSITY) for pu in (-2.8, 2.8)],
    "cap_large": [(0.0, 0.0, 8.5, None)]
    + [(pu, 0.0, 2.2, PIN_INTENSITY) for pu in (-4.0, 4.0)],
}


def render(world: Worlds, camera_index: int, tcp=None) -> Observation:
    """One camera's view of a block of one at a (3,) or (1, 3) TCP (default its own)."""
    if not 0 <= camera_index < len(world.config.cameras):
        raise InvalidConfig(f"camera index {camera_index} out of range")
    pixels, truth_y = render_views(world, world.tcp if tcp is None else np.reshape(tcp, (1, 3)))
    return Observation(pixels[0, camera_index], float(truth_y[0, camera_index]))


def render_views(worlds: Worlds, tcps):
    """A scene: each of the m cameras' views at (n, 3) TCPs, view k of world k of a block of
    n: (n, m, r, r) float32 pixels, (n, m) truth_y, r the cameras' one resolution.

    Each crop is centered on its camera's nominal hole projection; the hole is a dark disc
    and the peg a bright glyph of the config's style, each at its world's true place. A
    disc's coverage is 0 beyond rad + edge/2 of its center, so each layer of discs (the
    hole, with a centre and radius per view, then each glyph disc, with a centre per view)
    is composited once over all n m views, on the union of their boxes (plus a spare
    pixel) that hit the image, and a view keeps its bits outside its own: it is the same
    in any batch. Each view's noise comes from a generator seeded by (world seed, camera
    index, TCP position bits), one keyed_generators call seeding them all, so
    re-rendering a pose is bit-identical.
    """
    tcps = np.asarray(tcps, dtype=float)
    if tcps.ndim != 2 or tcps.shape[1] != 3:
        raise ShapeMismatch(f"expected (n, 3) TCPs, got {tcps.shape}")
    n = len(tcps)
    if len(worlds) != n:
        raise ShapeMismatch(f"{len(worlds)} worlds for {n} views")
    if not np.isfinite(tcps).all():
        raise ConstraintViolation(f"render TCPs {tcps} are not finite")
    cfg = worlds.config
    m, r = len(cfg.cameras), cfg.cameras[0].r
    holes, pegs = worlds.true_hole, peg_position(worlds, tcps)
    e = inplane_component(holes - pegs, cfg.insertion_direction)
    hx, hy, px, py, truth_y = np.empty((5, n, m))  # view k's camera j, raveled to k m + j
    for j, (cam, shift, u) in enumerate(zip(cfg.cameras, cfg.crop_shifts, cfg.error_directions)):
        hx[:, j], hy[:, j] = np.array(project(cam, holes)) + shift[:, None]
        px[:, j], py[:, j] = np.array(project(cam, pegs)) + shift[:, None]
        truth_y[:, j] = normalize_error(scalar_error(e, u), cam)
    layers = [(hx.ravel(), hy.ravel(), np.repeat(worlds.hole_radius_px, m), HOLE_EDGE_WIDTH,
               HOLE_INTENSITY)]
    if cfg.peg_intensity is not None:  # the glyph's discs, in compositing order
        layers += [(px.ravel() + du, py.ravel() + dv, rad, EDGE_WIDTH,
                    cfg.peg_intensity if i is None else i)
                   for du, dv, rad, i in _GLYPHS[cfg.component_style]]
    img, grid = np.empty((n * m, r, r)), np.arange(r, dtype=float)
    img.reshape(n, m * r * r)[:] = worlds.background[:, None]
    for xs, ys, rad, edge, intensity in layers:
        reach = np.broadcast_to(rad + edge / 2.0 + 1.0, n * m)
        shown = ((-1.0 < xs + reach) & (xs - reach < r)  # false for inf
                 & (-1.0 < ys + reach) & (ys - reach < r))
        if not shown.any():
            continue
        views = slice(None) if shown.all() else np.flatnonzero(shown)
        xs, ys, reach = xs[views], ys[views], reach[views].max()
        x0, x1 = max(math.floor(xs.min() - reach), 0), min(math.ceil(xs.max() + reach) + 1, r)
        y0, y1 = max(math.floor(ys.min() - reach), 0), min(math.ceil(ys.max() + reach) + 1, r)
        rad = rad[views][:, None, None] if np.ndim(rad) else rad
        dist = np.hypot(grid[x0:x1] - xs[:, None, None], grid[y0:y1, None] - ys[:, None, None])
        # np.clip without its wrapper's cost; they differ only on -0.0, never here
        cov = np.minimum(np.maximum((rad - dist) / edge + 0.5, 0.0), 1.0)
        img[views, y0:y1, x0:x1] = (img[views, y0:y1, x0:x1] * (1.0 - cov)
                                    + intensity * cov)
    # [seed, j, *tcp bits] per view: integers, as uint64 unless the seeds are objects
    keys = np.empty((n, m, 5), dtype=object if worlds.seed.dtype == object else np.uint64)
    keys[:, :, 0], keys[:, :, 1] = worlds.seed[:, None], np.arange(m)
    keys[:, :, 2:] = tcps.view(np.uint64)[:, None, :]
    noise = np.empty((r, r))
    for view, noise_rng in zip(img, keyed_generators(keys.reshape(n * m, 5))):
        view += np.multiply(noise_rng.standard_normal(out=noise), NOISE_SIGMA, out=noise)
    np.minimum(np.maximum(img, 0.0, out=img), 1.0, out=img)  # clipped as cov is
    return img.astype(np.float32).reshape(n, m, r, r), truth_y


MODE_VS = "vs"
MODE_NOVS = "novs"
BENCH_MODES = (MODE_VS, MODE_NOVS)


@dataclass(frozen=True)
class Episode:
    """One insertion episode; rows.csv holds one per line, fields in order.

    spiral_search returns search-only (novs) episodes; pipeline.insert_batch
    turns the spiral after servoing into a vs episode. Errors are in-plane
    distances (mm) measured from the episode's start; the retrospective
    error is nan on failure.
    """

    style: str
    mode: str
    seed: int
    retrospective_error_mm: float  # |in-plane start - success position|
    true_error_mm: float  # hidden peg-hole distance at the start
    time_s: float  # simulated seconds
    attempts: int
    success: bool
    post_servo_retrospective_error_mm: float  # nan without servoing
    direct: bool  # inserted on the first spiral attempt


class Episodes:
    """Episodes as one array per field, by name, style and mode as np.uint8 CODES: 48 bytes
    a row against 330 for the objects, which it builds on access. It acts as a list of
    Episodes (len, iteration, integer index, repr); == compares columns, nan to nan."""

    CODES = {"style": COMPONENT_STYLES, "mode": BENCH_MODES}

    def __init__(self, **columns):
        self.columns = {f.name: columns[f.name] for f in fields(Episode)}

    @classmethod
    def of(cls, items) -> "Episodes":
        """The batch of a sequence of Episodes, or of batches joined in order; a style or
        mode outside its CODES names raises InvalidConfig."""
        if isinstance(items, Episodes):
            return items
        items = list(items)
        if items and all(isinstance(b, Episodes) for b in items):
            batches = [b for b in items if len(b)] or items[:1]
            return cls(**{name: np.concatenate([b.columns[name] for b in batches])
                          for name in batches[0].columns})
        columns = {f.name: [getattr(r, f.name) for r in items] for f in fields(Episode)}
        for name, names in cls.CODES.items():
            unknown = set(columns[name]) - set(names)
            if unknown:
                raise InvalidConfig(f"unknown {name} {unknown.pop()!r}; expected one of {names}")
            columns[name] = np.array([names.index(v) for v in columns[name]], dtype=np.uint8)
        seeds = columns["seed"]  # int64, or Python integers once one is 2**63 or more
        columns["seed"] = np.array(seeds, np.int64 if max(seeds, default=0) < 1 << 63 else object)
        return cls(**{f.name: np.array(columns[f.name], dtype={bool: bool}.get(f.type))
                      for f in fields(Episode)})

    def __len__(self):
        return len(self.columns["style"])

    def __iter__(self):
        return (Episode(*row) for row in zip(*[
            (np.array(self.CODES[name], dtype=object)[c] if name in self.CODES else c).tolist()
            for name, c in self.columns.items()]))

    def __getitem__(self, k):
        return Episode(*(self.CODES[name][c.item(k)] if name in self.CODES else c.item(k)
                         for name, c in self.columns.items()))

    def __eq__(self, other):
        other = Episodes.of(other).columns
        return all(np.array_equal(c, other[name], equal_nan=c.dtype.kind == "f")
                   for name, c in self.columns.items())

    def __repr__(self):
        return repr(list(self))


def spiral_insert(world: Worlds, start_tcp, pattern, timing: TimingModel) -> Episode:
    """move_tcp to start_tcp, then spiral_search of this block of one."""
    move_tcp(world, start_tcp)
    return spiral_search(world, pattern, timing)[0]


def _ring_band(pattern, miss, thr):
    """(world, offset) index rows, in that order, of a band of offsets per world holding every
    o that |o - miss|^2 <= thr^2 passes: ||o| - |miss|| <= thr, and the sorted running maximum
    of the norms exceeds each by at most its largest gap (the ring quantum, in ring order).
    Rounding takes a few ulps of |miss|, the largest norm and thr: 8 eps of their sum."""
    reach, gap = pattern.reach
    far = np.hypot(miss[:, 0], miss[:, 1])
    slack = thr + gap + 8.0 * np.finfo(float).eps * (far + reach.max(initial=0.0) + thr)
    lo = np.searchsorted(reach, far - slack)
    counts = np.searchsorted(reach, far + slack, side="right") - lo
    wi = np.repeat(np.arange(len(miss)), counts)
    return wi, np.arange(len(wi)) + (lo - np.cumsum(counts) + counts)[wi]


def spiral_search(worlds: Worlds, pattern, timing: TimingModel) -> Episodes:
    """Per world of a block, try pattern offsets from its TCP in order until one inserts.

    The block's one config gives the basis, direction, tolerance and style; a pattern
    of another tolerance warns once per call. An episode's time_s is its attempts times
    t_attempt. A world's TCP row ends at its hit, or back at its start with a nan
    retrospective error. Returns the batch of one novs episode per world, its true error
    measured at the start.

    The offsets in each world's _ring_band are screened by the squared in-plane
    peg-hole distance |basis.T @ (hole - peg at start) - offset|^2, which differs
    from the per-attempt arithmetic by a few ulps of the largest coordinate: every
    offset that would insert passes within a 1e-9 relative slack of the tolerance.
    Candidates are confirmed with the per-attempt arithmetic (start + basis @ offset,
    then true_inplane_errors' inplane_norm, on stacked rows), and a world's first
    confirmed offset is its hit, so every result is bit-identical to trying the offsets
    one by one. Every world's path not cleared by a rounding bound is checked for
    out-of-plane motion before any TCP is written: a failing path changes no world.
    """
    cfg, basis = worlds.config, worlds.basis
    l, tol = cfg.insertion_direction, cfg.tolerance
    holes, origins = worlds.true_hole, worlds.tcp
    offsets, got = pattern.offsets, float(pattern.tolerance)
    if tol != got and not np.isclose(got, tol):
        warnings.warn(f"pattern tolerance {got} != world tolerance {tol}", stacklevel=2)
    shift = (basis @ worlds.grasp_offset[:, :, None])[:, :, 0]  # basis @ grasp_offset
    pegs = origins + shift  # peg_position at each start
    miss = (basis.T @ (holes - pegs)[:, :, None])[:, :, 0]
    scale = np.maximum(np.abs(offsets).max(initial=0.0),
                       np.maximum(np.abs(holes).max(axis=1), np.abs(pegs).max(axis=1)))
    thr = tol + 1e-9 * (tol + scale)
    wi, ki = _ring_band(pattern, miss, thr)
    d = np.take(offsets, ki, axis=0)  # take: faster; the screen in place
    d -= np.take(miss, wi, axis=0)
    np.square(d, out=d)
    passed = d[:, 0] + d[:, 1] <= np.take(np.square(thr), wi)
    wi, ki = wi[passed], ki[passed]
    tcps = origins[wi] + (basis @ offsets[ki][:, :, None])[:, :, 0]
    confirmed = inplane_norm(holes[wi] - (tcps + shift[wi]), l) <= tol
    wi, ki, tcps = wi[confirmed], ki[confirmed], tcps[confirmed]
    first = np.flatnonzero(wi != np.concatenate(([-1], wi[:-1])))  # each world's first: wi sorted
    hit = wi[first]
    success = np.zeros(len(worlds), dtype=bool)
    attempts, finals = np.full(len(worlds), len(offsets), dtype=np.int32), origins.copy()
    success[hit], attempts[hit], finals[hit] = True, ki[first] + 1, tcps[first]
    retros = np.where(success, inplane_norm(finals - origins, l), np.nan)
    true_errors = inplane_norm(holes - pegs, l)
    # A world's path steps through a prefix of the moves m_k = basis @ offset_k, from its
    # start s and, on a failure, back. Per coordinate i, with M = max|m_k,i|, a step
    # (s + m_k) - (s + m_k-1) is off m_k - m_k-1 by eps (|s_i| + 2M) (half an ulp of each
    # sum and of the difference); its dot with l rounds by 1.5 eps sum_i |l_i| 2M, and the
    # computed largest |(m_k - m_k-1) . l| is off by 2 eps of the same: 4.5 eps sum_i
    # |l_i| (|s_i| + 2M) to first order, as check_rounding reasons; 8 eps covers the rest.
    moves, step, far = _pattern_moves(pattern, basis.tobytes(), l.tobytes())
    bound = step + 8.0 * np.finfo(float).eps * scalar_error(np.abs(origins) + 2.0 * far, np.abs(l))
    for k in np.flatnonzero(~(bound <= _INPLANE_TOL)).tolist():
        path = np.concatenate((origins[k:k + 1], origins[k] + moves[:attempts[k]])
                              + (() if success[k] else (origins[k:k + 1],)))
        _check_inplane(float(np.abs((path[1:] - path[:-1]) @ l).max(initial=0.0)))
    worlds.tcp[hit] = tcps[first]
    n, style = len(worlds), COMPONENT_STYLES.index(cfg.component_style)
    return Episodes(style=np.full(n, style, dtype=np.uint8),
                    mode=np.full(n, BENCH_MODES.index(MODE_NOVS), dtype=np.uint8),
                    seed=worlds.seed.copy(), retrospective_error_mm=retros,
                    true_error_mm=true_errors, time_s=attempts * timing.t_attempt,
                    attempts=attempts, success=success, direct=success & (attempts == 1),
                    post_servo_retrospective_error_mm=np.full(n, np.nan))


def write_pgm(pixels: np.ndarray, path) -> None:
    """Export one observation as a binary 8-bit PGM."""
    arr = np.clip(np.round(np.asarray(pixels, dtype=float) * 255.0), 0, 255)
    h, w = arr.shape
    write_artifact(path, f"P5\n{w} {h}\n255\n".encode("ascii")
                   + arr.astype(np.uint8).tobytes())


_SCALARS = {bool, int, float, str, type(None)}


def _section_fields(cls):
    """The fields a config section sets: those not holding another config."""
    return [f for f in fields(cls) if not is_dataclass(f.type)]


def config_from_dict(cls, section, **nested):
    """Build the config dataclass cls from one JSON config section.

    The keys are cls's fields, except those holding another config, which
    are built from their own sections and passed as nested. A JSON list
    becomes a tuple and an integer for a float field a float. An unknown
    key, a section that is not a JSON object, a scalar of the wrong type or
    a value the constructor rejects raises InvalidConfig.
    """
    if not isinstance(section, dict):
        raise InvalidConfig(f"{cls.__name__} section must be a JSON object, "
                            f"got {section!r}")
    types = {f.name: f.type for f in _section_fields(cls)}
    unknown = set(section) - set(types)
    if unknown:
        raise InvalidConfig(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kw = {}
    for key, value in section.items():
        kinds = typing.get_args(types[key]) or (types[key],)
        if float in kinds and type(value) is int:
            value = float(value)
        elif isinstance(value, list):
            value = tuple(value)
        if set(kinds) <= _SCALARS and type(value) not in kinds:
            raise InvalidConfig(f"{cls.__name__}.{key} must be of type "
                                f"{' or '.join(k.__name__ for k in kinds)}, "
                                f"got {value!r}")
        kw[key] = value
    try:
        return cls(**kw, **nested)
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidConfig(f"bad {cls.__name__} section: {exc!r}") from exc


def _jsonable(value):
    if is_dataclass(value):  # a camera
        return config_to_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def config_to_dict(cfg) -> dict:
    """The config section that config_from_dict reads back as cfg."""
    return {f.name: _jsonable(getattr(cfg, f.name))
            for f in _section_fields(type(cfg))}


def load_config_file(path) -> dict:
    """Read a JSON config file: one object of world/timing/... sections."""
    try:
        raw = json.loads(read_artifact(path))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path} must hold a JSON object of sections")
    return raw
