"""Deterministic simulated robot cell: hidden hole, TCP motion, rendering.

A world hides the true hole position and the in-hand grasp offset behind a
seed. The TCP moves in the plane perpendicular to the insertion direction;
insertion attempts and camera renders are the only ways to learn anything
about the hidden state. Every simulated second is accounted through
TimingModel so wall-clock comparisons between strategies are reproducible.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, InvalidConfig, IoError
from .geometry import (CameraModel, aimed_camera, camera_from_dict,
                       camera_to_dict, error_direction, inplane_basis,
                       inplane_component, normalize_error, project,
                       scalar_error, unit, vec3)

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

    @property
    def search_time_constant(self) -> float:
        # Expected spiral time ~ k * (e / tol)^2 for error e >> tol: the
        # lattice visits 2/(sqrt(3) s^2) points per unit area at spacing
        # s = tol*sqrt(3), so a disc of radius e holds 2*pi*e^2/(3*sqrt(3)*tol^2)
        # points and the target is equally likely anywhere in visit order.
        return self.t_attempt * 2.0 * np.pi / (3.0 * np.sqrt(3.0))

    def servo_step_time(self, n_cameras: int) -> float:
        return n_cameras * (self.t_capture + self.t_infer) + self.t_move


@dataclass(frozen=True)
class Appearance:
    """Per-world nuisance draws that style the renders."""

    background: float
    hole_radius_px: float
    peg_scale: float
    glyph_angle: float


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


@dataclass(frozen=True)
class WorldConfig:
    """Everything that defines an experiment world.

    tolerance is the insertion clearance (mm): an attempt succeeds iff the
    in-plane peg-hole distance is <= tolerance. hole/grasp uncertainty sigmas
    feed the hidden per-world draws. extra_error_radius is the radius of the
    uniform start-error disc applied per benchmark run; new_world itself does
    not apply it. peg_intensity=None renders no peg marking at all (contrast
    ablation for gate tests).
    """

    tolerance: float = 0.1
    hole_uncertainty_sigma: float = 0.01
    grasp_uncertainty_sigma: float = 0.01
    extra_error_radius: float = 1.0
    insertion_direction: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, -1.0))
    cameras: tuple = ()
    component_style: str = "led"
    seed: int = 0
    nominal_hole: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, 0.0))
    hover_height: float = 0.5
    peg_intensity: float | None = 0.9

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvalidConfig(f"tolerance must be > 0, got {self.tolerance}")
        if self.hole_uncertainty_sigma < 0 or self.grasp_uncertainty_sigma < 0:
            raise InvalidConfig("uncertainty sigmas must be >= 0")
        if self.extra_error_radius < 0:
            raise InvalidConfig("extra_error_radius must be >= 0")
        if self.hover_height < 0:
            raise InvalidConfig("hover_height must be >= 0")
        if self.component_style not in COMPONENT_STYLES:
            raise InvalidConfig(f"unknown component_style {self.component_style!r}; "
                                f"expected one of {COMPONENT_STYLES}")
        l = np.asarray(self.insertion_direction, dtype=float)
        if abs(np.linalg.norm(l) - 1.0) > 1e-6:
            raise InvalidConfig("insertion_direction must be a unit vector")
        object.__setattr__(self, "insertion_direction", unit(l))
        object.__setattr__(self, "nominal_hole",
                           np.asarray(self.nominal_hole, dtype=float))
        cams = tuple(self.cameras) if self.cameras else default_cameras(
            self.nominal_hole, self.insertion_direction)
        if len(cams) < 2:
            raise InvalidConfig("need at least two cameras")
        for cam in cams:
            view = self.nominal_hole - cam.position
            if np.dot(cam.optical_axis, view) <= 0:
                raise InvalidConfig("camera does not face the work area")
        object.__setattr__(self, "cameras", cams)


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
    rng: np.random.Generator
    basis: np.ndarray  # (3,2) in-plane basis, cached
    render_seed: int
    elapsed_time: float = 0.0
    attempt_count: int = 0
    max_inplane_violation: float = 0.0


def new_world(config: WorldConfig) -> WorldState:
    """Draw the hidden state and park the TCP at the nominal approach pose.

    The TCP starts hover_height above the nominal hole along -l. The
    benchmark's extra start error is applied by its driver afterwards, not
    here.
    """
    l = config.insertion_direction
    B = inplane_basis(l)
    scene = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    hole2 = config.hole_uncertainty_sigma * scene.standard_normal(2)
    grasp2 = config.grasp_uncertainty_sigma * scene.standard_normal(2)
    # Background level and hole finish vary per world (lighting, board);
    # the grasped part itself has fixed geometry and fixed grasp rotation,
    # so the glyph shape is deterministic.
    app = Appearance(
        background=float(scene.uniform(0.4, 0.6)),
        hole_radius_px=float(scene.uniform(3.6, 4.4)),
        peg_scale=1.0,
        glyph_angle=0.0,
    )
    true_hole = config.nominal_hole + B @ hole2
    tcp = config.nominal_hole - config.hover_height * l
    return WorldState(config=config, true_hole=true_hole, grasp_offset=grasp2,
                      nominal_hole=config.nominal_hole.copy(), tcp=tcp,
                      appearance=app,
                      rng=np.random.default_rng(np.random.SeedSequence([config.seed, 1])),
                      basis=B, render_seed=int(config.seed))


def peg_position(world: WorldState, tcp=None) -> np.ndarray:
    if tcp is None:
        tcp = world.tcp
    return np.asarray(tcp, dtype=float) + world.basis @ world.grasp_offset


def true_inplane_error(world: WorldState, tcp=None) -> float:
    """Hidden in-plane peg-to-hole distance (mm). Diagnostic only."""
    e = inplane_component(world.true_hole - peg_position(world, tcp),
                          world.config.insertion_direction)
    return float(np.linalg.norm(e))


def move_tcp(world: WorldState, new_tcp, stroke: bool = False) -> None:
    """Reposition the TCP.

    Non-stroke moves must stay in the plane perpendicular to l; stroke=True
    permits displacement along l (insertion strokes and capture height
    moves). Out-of-plane non-stroke motion and any non-finite target raise
    ConstraintViolation, leaving the TCP where it was.
    """
    new_tcp = np.asarray(new_tcp, dtype=float)
    if not np.isfinite(new_tcp).all():
        raise ConstraintViolation(f"TCP target {new_tcp} is not finite")
    if not stroke:
        _check_inplane(world, abs(float(np.dot(new_tcp - world.tcp,
                                               world.config.insertion_direction))))
    world.tcp = new_tcp


def _check_inplane(world: WorldState, along) -> None:
    """Reject out-of-plane move components and record the largest one."""
    worst = float(np.max(along, initial=0.0))
    if not worst <= _INPLANE_TOL:
        raise ConstraintViolation(
            f"TCP move has out-of-plane component {worst:.3e} mm")
    world.max_inplane_violation = max(world.max_inplane_violation, worst)


def attempt_insertion(world: WorldState, tcp=None) -> bool:
    """Stroke down at the given (default current) TCP and report success.

    Success iff the in-plane peg-hole distance is <= tolerance. Counts one
    attempt; the time ledger is owned by the caller (spiral_insert charges
    t_attempt per attempt).
    """
    world.attempt_count += 1
    return true_inplane_error(world, tcp) <= world.config.tolerance


@dataclass(frozen=True)
class Observation:
    """One rendered camera image plus ground truth for oracle predictors.

    truth_y is the normalized in-plane error along the camera's error
    direction, exactly what an ideal regressor would output.
    """

    pixels: np.ndarray  # (r, r) float32 in [0, 1]
    camera_index: int
    truth_y: float


def _composite(img, cov, intensity):
    return img * (1.0 - cov) + intensity * cov


def _disc_cov(X, Y, cx, cy, rad, edge=EDGE_WIDTH):
    d = np.hypot(X - cx, Y - cy)
    return np.clip((rad - d) / edge + 0.5, 0.0, 1.0)


def _draw_glyph(img, X, Y, cx, cy, style, app: Appearance, peg_i: float):
    sc = app.peg_scale
    ang = app.glyph_angle
    c, s = np.cos(ang), np.sin(ang)

    def pin_at(im, pu, pv, rad):
        px = cx + c * pu - s * pv
        py = cy + s * pu + c * pv
        return _composite(im, _disc_cov(X, Y, px, py, rad * sc), PIN_INTENSITY)

    if style == "pin_header":
        img = _composite(img, _disc_cov(X, Y, cx, cy, 6.0 * sc), peg_i)
        for pu in (-3.2 * sc, 0.0, 3.2 * sc):
            img = pin_at(img, pu, 0.0, 1.8)
    elif style == "dsub":
        img = _composite(img, _disc_cov(X, Y, cx, cy, 7.8 * sc), peg_i)
        for pu in (-2.8 * sc, 2.8 * sc):
            for pv in (-2.8 * sc, 2.8 * sc):
                img = pin_at(img, pu, pv, 1.8)
    elif style == "led":
        img = _composite(img, _disc_cov(X, Y, cx, cy, 6.5 * sc), peg_i)
        img = _composite(img, _disc_cov(X, Y, cx, cy, 2.6 * sc), 0.45)
    elif style == "cap_small":
        img = _composite(img, _disc_cov(X, Y, cx, cy, 5.5 * sc), peg_i)
        for pu in (-2.8 * sc, 2.8 * sc):
            img = pin_at(img, pu, 0.0, 1.8)
    elif style == "cap_large":
        img = _composite(img, _disc_cov(X, Y, cx, cy, 8.5 * sc), peg_i)
        for pu in (-4.0 * sc, 4.0 * sc):
            img = pin_at(img, pu, 0.0, 2.2)
    return img


def render(world: WorldState, camera_index: int, tcp=None) -> Observation:
    """Render one camera view of the scene at the given TCP.

    The crop is centered on the nominal hole projection; the hole appears as
    a dark disc at its true position and the peg as a bright style-specific
    glyph at its true position. Pixel noise is drawn from a generator seeded
    by (world seed, camera index, TCP position bits), so re-rendering the
    same pose is bit-identical.
    """
    cfg = world.config
    if not 0 <= camera_index < len(cfg.cameras):
        raise InvalidConfig(f"camera index {camera_index} out of range")
    cam = cfg.cameras[camera_index]
    tcp = world.tcp if tcp is None else np.asarray(tcp, dtype=float)
    peg = peg_position(world, tcp)

    nominal_px = np.array(project(cam, world.nominal_hole))
    shift = np.array([cam.r / 2.0, cam.r / 2.0]) - nominal_px
    hole_px = np.array(project(cam, world.true_hole)) + shift
    peg_px = np.array(project(cam, peg)) + shift

    app = world.appearance
    grid = np.arange(cam.r, dtype=float)
    X, Y = np.meshgrid(grid, grid)
    img = np.full((cam.r, cam.r), app.background)
    img = _composite(img, _disc_cov(X, Y, hole_px[0], hole_px[1], app.hole_radius_px,
                                    edge=HOLE_EDGE_WIDTH), HOLE_INTENSITY)
    if cfg.peg_intensity is not None:
        img = _draw_glyph(img, X, Y, peg_px[0], peg_px[1],
                          cfg.component_style, app, cfg.peg_intensity)

    bits = np.asarray(tcp, dtype=np.float64).view(np.uint64)
    noise_rng = np.random.default_rng(np.random.SeedSequence(
        [world.render_seed, camera_index, int(bits[0]), int(bits[1]), int(bits[2])]))
    img = np.clip(img + NOISE_SIGMA * noise_rng.standard_normal(img.shape), 0.0, 1.0)

    u = error_direction(cfg.insertion_direction, world.nominal_hole - cam.position)
    e = inplane_component(world.true_hole - peg, cfg.insertion_direction)
    truth_y = normalize_error(scalar_error(e, u), cam)
    return Observation(pixels=img.astype(np.float32), camera_index=camera_index,
                       truth_y=float(truth_y))


@dataclass
class InsertionOutcome:
    """Result of one insertion episode (search-only or servo-then-search)."""

    success: bool
    attempts: int
    simulated_time: float
    final_tcp: np.ndarray
    retrospective_error_mm: float  # |in-plane start - success position|; nan on failure
    servo_residuals: list = field(default_factory=list)
    post_servo_retrospective_error_mm: float = float("nan")


def spiral_insert(world: WorldState, start_tcp, pattern,
                  timing: TimingModel) -> InsertionOutcome:
    """Try pattern offsets from start_tcp in order until one inserts.

    Charges t_attempt per attempt. On success the TCP stays at the
    successful offset; on failure it returns to start_tcp and the
    retrospective error is nan.

    The offsets are screened in one vectorized pass, then confirmed. The
    screen computes every offset's in-plane peg-hole distance at once in
    basis coordinates, |basis.T @ (hole - peg at start_tcp) - offset|. It
    differs from the per-attempt arithmetic only by rounding, a few ulps of
    the largest coordinate involved, so every offset that would insert
    screens within a 1e-9 relative slack of the tolerance. These candidates
    are confirmed in pattern order with the per-attempt arithmetic itself
    (start_tcp + basis @ offset, then true_inplane_error); the first that
    passes is the hit. Attempts, the final TCP and the retrospective error
    are therefore bit-identical to trying the offsets one by one. Every
    move made (to start_tcp, through the offsets up to the hit, and back to
    start_tcp on failure) is checked for out-of-plane motion before any
    attempt is counted.
    """
    cfg = world.config
    tol = cfg.tolerance
    if not np.isclose(pattern.tolerance, tol):
        warnings.warn(f"pattern tolerance {pattern.tolerance} != world "
                      f"tolerance {tol}", stacklevel=2)
    start_tcp = np.asarray(start_tcp, dtype=float)
    move_tcp(world, start_tcp)
    offsets, basis = pattern.offsets, world.basis
    peg = peg_position(world, start_tcp)
    miss = basis.T @ (world.true_hole - peg)
    screen = np.hypot(offsets[:, 0] - miss[0], offsets[:, 1] - miss[1])
    scale = max(np.abs(offsets).max(initial=0.0), np.abs(world.true_hole).max(),
                np.abs(peg).max())
    success, attempts, final = False, len(offsets), start_tcp
    for k in np.flatnonzero(screen <= tol + 1e-9 * (tol + scale)):
        tcp_k = start_tcp + basis @ offsets[k]
        if true_inplane_error(world, tcp_k) <= tol:
            success, attempts, final = True, int(k) + 1, tcp_k
            break
    path = [start_tcp[None, :], start_tcp + offsets[:attempts] @ basis.T]
    if not success:
        path.append(start_tcp[None, :])
    _check_inplane(world, np.abs(np.diff(np.concatenate(path), axis=0)
                                 @ cfg.insertion_direction))
    world.tcp = final
    world.attempt_count += attempts
    t = attempts * timing.t_attempt
    world.elapsed_time += t
    if not success:
        return InsertionOutcome(success=False, attempts=attempts, simulated_time=t,
                                final_tcp=start_tcp,
                                retrospective_error_mm=float("nan"))
    retro = np.linalg.norm(inplane_component(final - start_tcp,
                                             cfg.insertion_direction))
    return InsertionOutcome(success=True, attempts=attempts, simulated_time=t,
                            final_tcp=final, retrospective_error_mm=float(retro))


def write_pgm(pixels: np.ndarray, path) -> None:
    """Export one observation as a binary 8-bit PGM."""
    arr = np.clip(np.round(np.asarray(pixels, dtype=float) * 255.0), 0, 255)
    h, w = arr.shape
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(arr.astype(np.uint8).tobytes())
    except OSError as exc:
        raise IoError(str(exc)) from exc


_WORLD_KEYS = {"tolerance", "hole_uncertainty_sigma", "grasp_uncertainty_sigma",
               "extra_error_radius", "insertion_direction", "cameras",
               "component_style", "seed", "nominal_hole", "hover_height",
               "peg_intensity"}
_TIMING_KEYS = {"t_attempt", "t_capture", "t_infer", "t_move"}


def world_from_dict(d: dict) -> WorldConfig:
    unknown = set(d) - _WORLD_KEYS
    if unknown:
        raise InvalidConfig(f"unknown world config keys: {sorted(unknown)}")
    kw = dict(d)
    if "insertion_direction" in kw:
        kw["insertion_direction"] = np.asarray(kw["insertion_direction"], dtype=float)
    if "nominal_hole" in kw:
        kw["nominal_hole"] = np.asarray(kw["nominal_hole"], dtype=float)
    if "cameras" in kw:
        l = kw.get("insertion_direction", vec3(0.0, 0.0, -1.0))
        nominal = kw.get("nominal_hole", vec3(0.0, 0.0, 0.0))
        cams = []
        for cd in kw["cameras"]:
            if "orientation" in cd:
                cams.append(camera_from_dict(cd))
            else:
                cams.append(aimed_camera(np.asarray(cd["position"], dtype=float),
                                         nominal, l, f=float(cd.get("f", 1000.0)),
                                         r=int(cd.get("r", 64))))
        kw["cameras"] = tuple(cams)
    try:
        return WorldConfig(**kw)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc


def world_to_dict(cfg: WorldConfig) -> dict:
    return {
        "tolerance": cfg.tolerance,
        "hole_uncertainty_sigma": cfg.hole_uncertainty_sigma,
        "grasp_uncertainty_sigma": cfg.grasp_uncertainty_sigma,
        "extra_error_radius": cfg.extra_error_radius,
        "insertion_direction": [float(v) for v in cfg.insertion_direction],
        "cameras": [camera_to_dict(c) for c in cfg.cameras],
        "component_style": cfg.component_style,
        "seed": cfg.seed,
        "nominal_hole": [float(v) for v in cfg.nominal_hole],
        "hover_height": cfg.hover_height,
        "peg_intensity": cfg.peg_intensity,
    }


def timing_from_dict(d: dict) -> TimingModel:
    unknown = set(d) - _TIMING_KEYS
    if unknown:
        raise InvalidConfig(f"unknown timing config keys: {sorted(unknown)}")
    return TimingModel(**{k: float(v) for k, v in d.items()})


def timing_to_dict(t: TimingModel) -> dict:
    return {"t_attempt": t.t_attempt, "t_capture": t.t_capture,
            "t_infer": t.t_infer, "t_move": t.t_move}


def load_config_file(path) -> dict:
    """Read a JSON config file with optional world/timing/... sections."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"bad JSON in {path}: {exc}") from exc
