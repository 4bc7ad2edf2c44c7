"""Deterministic simulated robot cell: hidden hole, TCP motion, rendering.

A world hides the true hole position and the in-hand grasp offset behind a
seed. The TCP moves in the plane perpendicular to the insertion direction;
insertion attempts and camera renders are the only ways to learn anything
about the hidden state. Every simulated second is accounted through
TimingModel so wall-clock comparisons between strategies are reproducible.
"""

import itertools
import json
import math
import typing
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConstraintViolation, DegenerateView, InvalidConfig,
                     InvalidTolerance, ShapeMismatch, read_artifact, write_artifact)
from .geometry import (CameraModel, aimed_camera, camera_from_dict,
                       camera_to_dict, error_direction, inplane_basis,
                       inplane_component, inplane_norm, normalize_error,
                       project, scalar_error, unit, vec3)

COMPONENT_STYLES = ("pin_header", "led", "cap_small", "dsub", "cap_large")

HOLE_INTENSITY = 0.1
PIN_INTENSITY = 0.5
NOISE_SIGMA = 0.02

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


@dataclass(frozen=True)
class Appearance:
    """Per-world nuisance draws that style the renders."""

    background: float
    hole_radius_px: float


def default_cameras(nominal_hole, l, f: float = 1000.0, r: int = 64,
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


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding, for a
# batch of keys at once. Every uint32 operand is an np.uint32, so the
# arithmetic wraps the same under any numpy casting rules.
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, read-only: a hash's multipliers."""
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n + 1)],
                      dtype=np.uint32)
    consts.flags.writeable = False
    return consts


def _hashmix(values, pre, post):
    """SeedSequence's hash: xor in the multiplier, step it, multiply by the next."""
    values = (values ^ pre) * post
    return values ^ values >> _XSHIFT


def _mix(x, y):
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> _XSHIFT


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # the pool's first 16 hashes
# The pool's cross mix hashes word src into each other word in turn: per src,
# the (pre, post) multipliers in the other words' slots, 0 in its own
_CROSS = [[np.array([*_HASH_A[k:k + src], 0, *_HASH_A[k + src:k + 3]], dtype=np.uint32)
           for k in (4 + 3 * src, 5 + 3 * src)] for src in range(4)]
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's


def seed_states(keys) -> np.ndarray:
    """np.random.SeedSequence(key).generate_state(4, np.uint64) of each of n keys
    of m non-negative integers, as (n, 4) uint64; column 0 is generate_state(1)."""
    if len(keys) == 0:
        return np.zeros((0, 4), dtype=np.uint64)
    keys = np.array(keys, dtype=object)  # not inferred: int64 and uint64 make float64
    if keys.ndim != 2 or not all(issubclass(t, (int, np.integer)) and t is not bool
                                 for t in set(map(type, keys.flat))) or keys.min() < 0:
        raise ValueError(f"keys must be rows of non-negative integers, got {keys!r}")
    top = int(keys.max())
    if top < 1 << 64:  # else they stay Python integers
        keys = keys.astype(np.uint64)
    # SeedSequence's entropy: each integer's 32-bit words, least significant
    # first (one word for 0), zero padded to the pool's four words
    width = max(1, -(-top.bit_length() // 32))  # the widest integer's words
    shifted = np.stack([keys >> 32 * j for j in range(width)], axis=2).reshape(len(keys), -1)
    keep = shifted != 0
    keep[:, ::width] = True  # an integer's lowest word
    lengths = keep.sum(axis=1)
    entropy = np.zeros((len(keys), max(4, lengths.max())), dtype=np.uint32)
    entropy[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = shifted[keep] & _MASK32
    consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * entropy.shape[1])
    pool = _hashmix(entropy[:, :4], consts[:4], consts[1:5])
    for src, (pre, post) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[:, src, None], pre, post))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(4, entropy.shape[1]):  # a long key's words past the pool
        k = 4 * src  # its four hashes' multipliers
        mixed = _mix(pool, _hashmix(entropy[:, src, None], consts[k:k + 4], consts[k + 1:k + 5]))
        pool = np.where((lengths > src)[:, None], mixed, pool)
    state = _hashmix(np.tile(pool, 2), _HASH_B[:-1], _HASH_B[1:])
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


def keyed_generators(keys):
    """Per key, np.random.default_rng(np.random.SeedSequence(key)) as it starts:
    one Generator, reseeded at each step, so draw from it before the next."""
    generator = np.random.Generator(np.random.PCG64())
    for s_hi, s_lo, i_hi, i_lo in seed_states(keys).tolist():
        # PCG64's seeding: two LCG steps from state 0, adding the seed between
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        generator.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                         "state": {"state": state, "inc": inc}, "uinteger": 0}
        yield generator


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

    A camera is a CameraModel, its camera_to_dict form, or the shorthand
    {"position": ..., "f": 1000.0, "r": 64} for a camera aimed at the
    nominal hole. No cameras means default_cameras.
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

    def with_seed(self, seed: int) -> "WorldConfig":
        """This config at another seed: only the seed is checked again, and the
        per-camera tuples, which do not depend on it, are shared."""
        twin = object.__new__(WorldConfig)
        twin.__dict__.update(vars(self), seed=check_int("seed", seed, 0),
                             error_directions=self.error_directions,
                             crop_shifts=self.crop_shifts)  # the cached_property slots
        return twin

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
            return camera_from_dict(cam)
        return aimed_camera(np.asarray(cam["position"], dtype=float),
                            self.nominal_hole, self.insertion_direction,
                            f=cam.get("f", 1000.0), r=cam.get("r", 64))


@dataclass
class WorldState:
    """Mutable state of one simulated insertion experiment.

    true_hole and grasp_offset are hidden draws; code under test must not
    read them (diagnostics like true_inplane_error may). tcp is the tool
    center point; the in-hand peg sits at tcp + basis @ grasp_offset.
    """

    config: WorldConfig
    true_hole: np.ndarray
    grasp_offset: np.ndarray  # 2D coefficients in the in-plane basis
    nominal_hole: np.ndarray
    tcp: np.ndarray
    appearance: Appearance
    basis: np.ndarray  # (3,2) in-plane basis, shared read-only per direction
    elapsed_time: float = 0.0


@lru_cache(maxsize=16)
def _shared_basis(direction: bytes) -> np.ndarray:
    """inplane_basis of the direction with these bytes, read-only and shared."""
    basis = inplane_basis(np.frombuffer(direction))
    basis.flags.writeable = False
    return basis


def new_world(config: WorldConfig) -> WorldState:
    """One config's world: new_worlds of one."""
    return new_worlds([config])[0]


def new_worlds(configs) -> list:
    """Per config, draw the hidden state (the hole's and the grasp's offsets,
    then the appearance, from its scene stream) and park the TCP hover_height
    above the nominal hole along -l. The benchmark's start error is its own.
    The first draw that puts the true hole, or the peg at the approach pose,
    behind a camera raises InvalidConfig naming the seed and the drawn offset.
    """
    if not configs:
        return []
    draws = np.empty((len(configs), 6))
    for row, scene in zip(draws, keyed_generators([[cfg.seed, 0] for cfg in configs])):
        scene.standard_normal(out=row[:4])  # the same as two standard_normal(2)
        scene.random(out=row[4:])  # uniform(a, b) is a + (b - a) * random()
    holes2 = np.array([[cfg.hole_uncertainty_sigma] for cfg in configs]) * draws[:, :2]
    grasps2 = np.array([[cfg.grasp_uncertainty_sigma] for cfg in configs]) * draws[:, 2:4]
    # Background level and hole finish vary per world (lighting, board);
    # the grasped part itself has fixed geometry and fixed grasp rotation,
    # so the glyph shape is deterministic.
    backgrounds = (0.4 + (0.6 - 0.4) * draws[:, 4]).tolist()
    radii = (3.6 + (4.4 - 3.6) * draws[:, 5]).tolist()
    bases = [_shared_basis(cfg.insertion_direction.tobytes()) for cfg in configs]
    nominals = np.array([cfg.nominal_hole for cfg in configs])
    stacked = np.array(bases)  # each row of its products is basis @ offset, bit for bit
    true_holes = nominals + (stacked @ holes2[:, :, None])[:, :, 0]
    tcps = nominals - np.array([cfg.hover_height * cfg.insertion_direction for cfg in configs])
    pegs = tcps + (stacked @ grasps2[:, :, None])[:, :, 0]  # at the approach pose
    points, groups = np.stack([true_holes, pegs], axis=1), {}
    for k, cfg in enumerate(configs):  # a grid's seeds of one style share one sight
        groups.setdefault(id(cfg._sight), []).append(k)
    if not all(configs[ks[0]].sees(points[ks]) for ks in groups.values()):
        k = next(k for k, cfg in enumerate(configs) if not cfg.sees(points[k]))
        what, drawn = (("draws the hole", holes2[k]) if not configs[k].sees(true_holes[k])
                       else ("puts the peg", grasps2[k]))
        raise InvalidConfig(f"seed {configs[k].seed} {what} behind a camera "
                            f"(drawn offset {drawn.round(3).tolist()} mm)")
    return [WorldState(config=cfg, true_hole=hole, grasp_offset=grasp, nominal_hole=nominal,
                       tcp=tcp, appearance=Appearance(background, radius), basis=B)
            for cfg, hole, grasp, nominal, tcp, background, radius, B in zip(
                configs, true_holes, grasps2, nominals, tcps, backgrounds, radii, bases)]


def peg_position(world: WorldState) -> np.ndarray:
    return world.tcp + world.basis @ world.grasp_offset


def true_inplane_error(world: WorldState) -> float:
    """Hidden in-plane peg-to-hole distance (mm) at the TCP. Diagnostic only."""
    return float(inplane_norm(world.true_hole - peg_position(world),
                              world.config.insertion_direction))


def move_tcp(world: WorldState, new_tcp) -> None:
    """Reposition the TCP within the plane perpendicular to l.

    Out-of-plane motion and any non-finite target raise ConstraintViolation,
    leaving the TCP where it was.
    """
    new_tcp = np.asarray(new_tcp, dtype=float)
    if not np.isfinite(new_tcp).all():
        raise ConstraintViolation(f"TCP target {new_tcp} is not finite")
    _check_inplane(abs(float(np.dot(new_tcp - world.tcp, world.config.insertion_direction))))
    world.tcp = new_tcp


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


def render(world: WorldState, camera_index: int, tcp=None) -> Observation:
    """One camera view at the given (default current) TCP: a batch of one."""
    tcp = world.tcp if tcp is None else np.asarray(tcp, dtype=float)
    pixels, truth_y = render_views([world], camera_index, tcp[None])
    return Observation(pixels[0], float(truth_y[0]))


def _per_view(values):
    """The views' shared value as a scalar (it broadcasts faster), else an (m, 1, 1) column."""
    return values[0] if len(set(values)) == 1 else np.array(values)[:, None, None]


def render_views(worlds, camera_index: int, tcps):
    """One camera's views, of one resolution r, at (n, 3) TCPs, view k of
    worlds[k] (or of one world shared by every view): (n, r, r) float32
    pixels, (n,) truth_y.

    Each crop is centered on its world's nominal hole projection; the hole is
    a dark disc and the peg a bright style-specific glyph, each at its true
    place. A disc's coverage is 0 beyond rad + edge/2 of its center, so each
    layer of discs (the hole, then each glyph's disc k) is composited once,
    on the union of its views' boxes (plus a spare pixel) that hit the image,
    and a view keeps its bits outside its own: it is the same in any batch.
    Each view's noise comes from a generator seeded by (world seed, camera
    index, TCP position bits), so re-rendering a pose is bit-identical.
    """
    if not all(0 <= camera_index < len(world.config.cameras) for world in worlds):
        raise InvalidConfig(f"camera index {camera_index} out of range")
    tcps = np.asarray(tcps, dtype=float)
    if tcps.ndim != 2 or tcps.shape[1] != 3:
        raise ShapeMismatch(f"expected (n, 3) TCPs, got {tcps.shape}")
    n, sizes = len(tcps), {world.config.cameras[camera_index].r for world in worlds}
    if len(sizes) != 1 or len(worlds) not in (1, n):
        raise ShapeMismatch(f"{len(worlds)} worlds of resolutions {sorted(sizes)} for {n} views")
    if not np.isfinite(tcps).all():
        raise ConstraintViolation(f"render TCPs {tcps} are not finite")
    r = sizes.pop()
    # per given world; one shared world's rows broadcast over the views
    cams = [world.config.cameras[camera_index] for world in worlds]
    holes, ls, us, offsets = (np.array(a) for a in zip(*(
        (w.true_hole, w.config.insertion_direction, w.config.error_directions[camera_index],
         w.basis @ w.grasp_offset) for w in worlds)))
    pegs = tcps + offsets
    holes_px = [project(cam, world.true_hole) for world, cam in zip(worlds, cams)]
    if len(worlds) < n:
        worlds, cams, holes_px = worlds * n, cams * n, holes_px * n
    layers = []  # per view, its discs in compositing order: (x, y, radius, edge, intensity)
    for world, cam, (hx, hy), peg in zip(worlds, cams, holes_px, pegs):
        cfg = world.config
        sx, sy = cfg.crop_shifts[camera_index].tolist()
        px, py = project(cam, peg)
        layers.append([(float(hx) + sx, float(hy) + sy, world.appearance.hole_radius_px,
                        HOLE_EDGE_WIDTH, HOLE_INTENSITY)])
        if cfg.peg_intensity is not None:
            px, py = float(px) + sx, float(py) + sy
            layers[-1] += [(px + du, py + dv, rad, EDGE_WIDTH,
                            cfg.peg_intensity if i is None else i)
                           for du, dv, rad, i in _GLYPHS[cfg.component_style]]
    img, grid = np.empty((n, r, r)), np.arange(r, dtype=float)
    img[:] = _per_view([world.appearance.background for world in worlds])
    for layer in itertools.zip_longest(*layers):  # None where a view has no such disc
        shown = []
        for k, disc in enumerate(layer):
            if disc is not None:
                x, y, rad, edge, _ = disc
                reach = rad + edge / 2.0 + 1.0
                if (-1.0 < x + reach and x - reach < r  # false for inf
                        and -1.0 < y + reach and y - reach < r):
                    shown.append((k, reach, *disc))
        if not shown:
            continue
        views, reaches, xs, ys, *params = zip(*shown)
        reach = max(reaches)
        x0, x1 = max(math.floor(min(xs) - reach), 0), min(math.ceil(max(xs) + reach) + 1, r)
        y0, y1 = max(math.floor(min(ys) - reach), 0), min(math.ceil(max(ys) + reach) + 1, r)
        cx, cy, rad, edge, intensity = map(_per_view, (xs, ys, *params))
        views = slice(None) if len(views) == n else list(views)
        dist = np.hypot(grid[x0:x1] - cx, grid[y0:y1, None] - cy)
        # np.clip without its wrapper's cost; they differ only on -0.0, never here
        cov = np.minimum(np.maximum((rad - dist) / edge + 0.5, 0.0), 1.0)
        img[views, y0:y1, x0:x1] = (img[views, y0:y1, x0:x1] * (1.0 - cov)
                                    + intensity * cov)
    keys = [[world.config.seed, camera_index, *bits]
            for world, bits in zip(worlds, tcps.view(np.uint64).tolist())]
    noise = np.empty((r, r))
    for view, noise_rng in zip(img, keyed_generators(keys)):
        view += np.multiply(noise_rng.standard_normal(out=noise), NOISE_SIGMA, out=noise)

    q = scalar_error(inplane_component(holes - pegs, ls), us).tolist()
    truth_y = np.array([normalize_error(qk, cam) for qk, cam in zip(q, cams)])
    np.minimum(np.maximum(img, 0.0, out=img), 1.0, out=img)  # clipped as cov is
    return img.astype(np.float32), truth_y


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


def spiral_insert(world: WorldState, start_tcp, pattern, timing: TimingModel) -> Episode:
    """move_tcp to start_tcp, then spiral_search of this one world: a batch of one."""
    move_tcp(world, start_tcp)
    return spiral_search([world], pattern, timing)[0]


def spiral_search(worlds, pattern, timing: TimingModel) -> list:
    """Per world, try pattern offsets from its TCP in order until one inserts.

    Charges t_attempt per attempt. A world's TCP ends at its hit, or back at
    its start with a nan retrospective error. Returns one novs Episode per
    world, its true error measured at the start.

    One stacked pass screens every world's offsets by the squared in-plane
    peg-hole distance |basis.T @ (hole - peg at start) - offset|^2, which
    differs from the per-attempt arithmetic by a few ulps of the largest
    coordinate: every offset that would insert passes within a 1e-9 relative
    slack of the tolerance. Candidates are confirmed with the per-attempt
    arithmetic (start + basis @ offset, then true_inplane_error's
    inplane_norm, on stacked rows), and a world's first confirmed offset is
    its hit, so every result is bit-identical to trying the offsets one by
    one. Every world's path is checked for out-of-plane motion before any
    world's TCP or clock is written, so a failing path changes no world.
    """
    offsets, got = pattern.offsets, float(pattern.tolerance)
    for world in worlds:
        tol = world.config.tolerance
        # np.isclose(got, tol) on two floats, without its array overhead
        if not (got == tol or abs(got - tol) <= 1e-8 + 1e-5 * abs(tol) and math.isfinite(tol)):
            warnings.warn(f"pattern tolerance {got} != world tolerance {tol}", stacklevel=2)
    if not worlds:
        return []
    bases, ls, holes, origins, grasps = (np.stack(a) for a in zip(*(
        (w.basis, w.config.insertion_direction, w.true_hole, w.tcp, w.grasp_offset)
        for w in worlds)))
    tols = np.array([w.config.tolerance for w in worlds])
    shift = (bases @ grasps[:, :, None])[:, :, 0]  # basis @ grasp_offset
    pegs = origins + shift  # peg_position at each start
    miss = (np.swapaxes(bases, 1, 2) @ (holes - pegs)[:, :, None])[:, :, 0]
    dx, dy = offsets[:, 0] - miss[:, :1], offsets[:, 1] - miss[:, 1:]
    screen = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)  # in place
    scale = np.maximum(np.abs(offsets).max(initial=0.0),
                       np.maximum(np.abs(holes).max(axis=1), np.abs(pegs).max(axis=1)))
    wi, ki = np.nonzero(screen <= np.square(tols + 1e-9 * (tols + scale))[:, None])
    tcps = origins[wi] + (bases[wi] @ offsets[ki][:, :, None])[:, :, 0]
    confirmed = inplane_norm(holes[wi] - (tcps + shift[wi]), ls[wi]) <= tols[wi]
    wi, ki, tcps = wi[confirmed], ki[confirmed], tcps[confirmed]
    hit, first = np.unique(wi, return_index=True)  # wi is in pattern order per world
    success = np.zeros(len(worlds), dtype=bool)
    attempts, finals = np.full(len(worlds), len(offsets)), origins.copy()
    success[hit], attempts[hit], finals[hit] = True, ki[first] + 1, tcps[first]
    retros = np.where(success, inplane_norm(finals - origins, ls), np.nan)
    true_errors = inplane_norm(holes - pegs, ls)
    # a world's path runs through a prefix of its basis's moves: the rows of
    # one product per shared basis
    moves = {id(b): offsets @ b.T for b in {id(w.basis): w.basis for w in worlds}.values()}
    for world, start, n_att, ok in zip(worlds, origins, attempts.tolist(), success.tolist()):
        path = np.concatenate((start[None, :], start + moves[id(world.basis)][:n_att])
                              + (() if ok else (start[None, :],)))
        _check_inplane(float(np.abs((path[1:] - path[:-1])
                                    @ world.config.insertion_direction).max(initial=0.0)))
    episodes = []
    for n, world in enumerate(worlds):
        cfg, n_att, ok = world.config, int(attempts[n]), bool(success[n])
        world.tcp = finals[n]
        t = n_att * timing.t_attempt
        world.elapsed_time += t
        episodes.append(Episode(
            style=cfg.component_style, mode=MODE_NOVS, seed=cfg.seed,
            retrospective_error_mm=float(retros[n]), true_error_mm=float(true_errors[n]),
            time_s=t, attempts=n_att, success=ok,
            post_servo_retrospective_error_mm=math.nan, direct=ok and n_att == 1))
    return episodes


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
    if isinstance(value, CameraModel):
        return camera_to_dict(value)
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
