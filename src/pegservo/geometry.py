"""Camera and error geometry for in-plane alignment.

All lengths are in millimeters, all image quantities in pixels. Vectors are
numpy float64 arrays of shape (3,). The insertion direction l is a unit
vector; "in-plane" always means perpendicular to l.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BehindCamera, DegenerateView, InsufficientViews, InvalidConfig

# Singular-value ratio below which the reconstruction row space is treated as
# rank deficient (all views near-parallel).
RANK_RATIO = 1e-6

_PARALLEL_TOL = 1e-9


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit: its multiply-then-subtract per
    component, in Python floats, without its per-call overhead."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def inplane_basis(l: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the plane perpendicular to l, as a (3,2) matrix.

    Columns (a1, a2) are chosen deterministically so that (a1, a2, -l) is
    right-handed; for the default l=(0,0,-1) they are the world x and y axes.
    2D offsets used throughout the package are coefficients in this basis.
    """
    l = unit(l)
    n = -l  # plane normal on the approach side
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    a1 = unit(ref - np.dot(ref, n) * n)
    a2 = _cross(n, a1)
    return np.stack([a1, a2], axis=1)


def inplane_component(v: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Project rows v (..., 3) onto the plane perpendicular to l (shared or per row)."""
    v, l = np.asarray(v, dtype=float), np.asarray(l, dtype=float)
    return v - (v[..., None, :] @ l[..., :, None])[..., 0] * l


def inplane_norm(v: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Per row, np.linalg.norm(inplane_component(v, l))."""
    e = inplane_component(v, l)
    return np.sqrt((e[..., None, :] @ e[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a square image.

    orientation rows are the camera axes expressed in world coordinates:
    row 0 the image x-axis, row 1 the image y-axis, row 2 the optical axis.
    f is the focal length in pixels, r the image side length in pixels and
    z the nominal depth (mm) of the insertion point along the optical axis.
    """

    position: np.ndarray
    orientation: np.ndarray
    f: float
    r: int
    z: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))
        if self.position.shape != (3,) or self.orientation.shape != (3, 3):
            raise InvalidConfig("camera position must be (3,), orientation (3,3)")
        for name, kind in (("f", float), ("r", int), ("z", float)):
            value = getattr(self, name)  # a bool or a string is no number; 64.0 is an int
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value < np.inf or kind(value) != value):
                raise InvalidConfig(f"camera {name} must be a finite positive "
                                    f"{kind.__name__}, got {value!r}")
            object.__setattr__(self, name, kind(value))
        R = self.orientation
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise InvalidConfig("camera orientation rows must be orthonormal")

    @property
    def optical_axis(self) -> np.ndarray:
        return self.orientation[2]


def error_direction(l: np.ndarray, view: np.ndarray) -> np.ndarray:
    """Unit direction u = l x v / |l x v| along which a camera sees in-plane error.

    view is the vector from the camera toward the insertion point. Raises
    DegenerateView when the camera looks straight down the insertion axis.
    """
    l = np.asarray(l, dtype=float)
    view = np.asarray(view, dtype=float)
    c = _cross(l, view)
    n = float(np.linalg.norm(c))
    if n <= _PARALLEL_TOL * float(np.linalg.norm(view)):
        raise DegenerateView("view vector is parallel to the insertion direction")
    return c / n


def scalar_error(e: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the scalar in-plane error q = e . u (mm) seen along u (shared or per row)."""
    e, u = np.asarray(e, dtype=float), np.asarray(u, dtype=float)
    return (e[..., None, :] @ u[..., :, None])[..., 0, 0][()]  # [()]: one row's is a scalar


def normalize_error(q: float, cam: CameraModel) -> float:
    """Map a metric error q (mm) to the resolution-independent label y = q f/(r z)."""
    return q * cam.f / (cam.r * cam.z)


def denormalize_error(y: float, cam: CameraModel) -> float:
    """Exact inverse of normalize_error: q = y r z / f (mm)."""
    return y * cam.r * cam.z / cam.f


class Reconstruction(NamedTuple):
    error: np.ndarray  # minimum-norm least-squares solution e_hat, shape (3,)
    ill_conditioned: bool


def reconstruct_error(dirs: Sequence[np.ndarray], qs: Sequence[float]) -> Reconstruction:
    """Solve U e = q for the in-plane error from per-camera scalar errors.

    U stacks the unit error directions row-wise. The system is solved in the
    minimum-norm least-squares sense; because every row is perpendicular to
    the insertion direction, the solution lands in the plane automatically.
    When the row space has numerical rank < 2 (all views near-parallel) the
    solution is still returned but flagged ill_conditioned: the error is only
    determined along one direction.
    """
    U = np.asarray(dirs, dtype=float).reshape(-1, 3)
    q = np.asarray(qs, dtype=float).reshape(-1)
    if U.shape[0] < 2:
        raise InsufficientViews(f"need at least 2 views, got {U.shape[0]}")
    if U.shape[0] != q.shape[0]:
        raise InsufficientViews("one scalar error per direction required")
    ill = _rank_deficient(U.tobytes())
    e_hat, *_ = np.linalg.lstsq(U, q, rcond=RANK_RATIO)
    return Reconstruction(e_hat, ill)


@lru_cache(maxsize=16)
def _rank_deficient(rows: bytes) -> bool:
    """Whether the (n, 3) rows of these bytes have rank < 2: one SVD per calibration."""
    svals = np.linalg.svd(np.frombuffer(rows).reshape(-1, 3), compute_uv=False)
    return bool(svals[1] <= RANK_RATIO * svals[0])


def project(cam: CameraModel, world_point: np.ndarray) -> tuple:
    """Pinhole projection of a world point, or of stacked (..., 3) rows (each
    bit for bit its own), to (px, py) pixel coordinates.

    The principal point sits at the image center (r/2, r/2). Raises
    BehindCamera for the first point with non-positive camera-frame depth.
    """
    v = np.asarray(world_point, dtype=float) - cam.position
    d = (cam.orientation @ v[..., None])[..., 0]
    behind = d[..., 2] <= 0.0
    if behind.any():
        raise BehindCamera(f"point depth {d[..., 2][behind].flat[0]:.6g} <= 0")
    half = cam.r / 2.0
    return (cam.f * d[..., 0] / d[..., 2] + half, cam.f * d[..., 1] / d[..., 2] + half)


def aimed_camera(position: np.ndarray, target: np.ndarray, l: np.ndarray,
                 f: float, r: int) -> CameraModel:
    """Build a CameraModel at `position` looking at `target`.

    The optical axis points along the view vector, the image x-axis equals
    the camera's error direction u (so in-plane error along u shows up as
    horizontal pixel displacement), and the image y-axis completes the
    right-handed frame. Nominal depth is the distance to the target.
    """
    position = np.asarray(position, dtype=float)
    target = np.asarray(target, dtype=float)
    view = target - position
    depth = float(np.linalg.norm(view))
    if depth == 0.0:
        raise InvalidConfig("camera placed exactly at the target")
    z_axis = view / depth
    x_axis = error_direction(l, view)
    y_axis = _cross(z_axis, x_axis)
    R = np.stack([x_axis, y_axis, z_axis])
    return CameraModel(position=position, orientation=R, f=f, r=r, z=depth)

