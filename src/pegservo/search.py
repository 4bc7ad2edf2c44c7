"""Isometric-grid spiral search patterns.

The fallback search attempts insertions at the points of a triangular
lattice, visited outward from the center. The lattice covering radius for
spacing s is s/sqrt(3), so spacing ss = tolerance*sqrt(3) is the coarsest
grid that still guarantees a hit anywhere inside the searched disc.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidRadius, InvalidTolerance, IoError

# Norms are rounded to this quantum before ordering so that lattice points on
# the same ring compare equal despite float construction jitter.
_NORM_QUANTUM = 1e-9


@dataclass(frozen=True)
class SearchPattern:
    """Ordered in-plane offsets (mm) on a triangular lattice.

    offsets[0] is (0,0); the rest are sorted by non-decreasing norm with
    ties broken counterclockwise by angle from the +x axis.
    """

    offsets: np.ndarray  # shape (n, 2), read-only
    spacing: float
    tolerance: float
    max_radius: float

    def __len__(self) -> int:
        return len(self.offsets)


@lru_cache(maxsize=16)
def generate_pattern(tolerance: float, max_radius: float) -> SearchPattern:
    """Build the search pattern for a given tolerance and search radius.

    Includes every lattice point with norm <= max_radius + tolerance; the
    margin keeps targets just inside the rim covered. Patterns are memoized
    per (tolerance, max_radius), so callers share one read-only pattern.
    """
    if not tolerance > 0:
        raise InvalidTolerance(f"tolerance must be > 0, got {tolerance}")
    if max_radius < 0:
        raise InvalidRadius(f"max_radius must be >= 0, got {max_radius}")
    s = tolerance * np.sqrt(3.0)
    bound = max_radius + tolerance
    # lattice basis (s, 0) and (s/2, s*sqrt(3)/2)
    jmax = int(np.ceil(bound / (s * np.sqrt(3.0) / 2.0))) + 1
    imax = int(np.ceil(bound / s)) + jmax + 1
    ii, jj = np.meshgrid(np.arange(-imax, imax + 1), np.arange(-jmax, jmax + 1))
    xs = s * (ii + 0.5 * jj)
    ys = s * (np.sqrt(3.0) / 2.0) * jj
    norms = np.hypot(xs, ys)
    keep = norms <= bound + _NORM_QUANTUM
    pts = np.stack([xs[keep], ys[keep]], axis=1)
    norms = norms[keep]
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    ring = np.round(norms / _NORM_QUANTUM).astype(np.int64)
    offsets = pts[np.lexsort((angles, ring))]
    offsets.flags.writeable = False
    return SearchPattern(offsets=offsets, spacing=float(s),
                         tolerance=float(tolerance), max_radius=float(max_radius))


def covering_radius(pattern: SearchPattern, region_radius: float,
                    grid_step: float) -> float:
    """Worst-case distance from any point of the search disc to the pattern.

    Dense-samples the disc of region_radius on a square grid of pitch
    grid_step and returns the maximum nearest-offset distance. A value
    <= tolerance certifies the coverage guarantee at the sampled density.
    """
    if not grid_step > 0:
        raise InvalidRadius(f"grid_step must be > 0, got {grid_step}")
    if region_radius < 0:
        raise InvalidRadius(f"region_radius must be >= 0, got {region_radius}")
    axis = np.arange(-region_radius, region_radius + grid_step / 2.0, grid_step)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= region_radius + 1e-12]
    if len(pts) == 0:
        pts = np.zeros((1, 2))
    from scipy.spatial import cKDTree  # costly import, needed only here
    tree = cKDTree(pattern.offsets)
    dists, _ = tree.query(pts, k=1)
    return float(np.max(dists))


def pattern_density(pattern: SearchPattern) -> float:
    """Offsets per unit area over the searched disc (mm^-2)."""
    area = np.pi * (pattern.max_radius + pattern.tolerance) ** 2
    return len(pattern) / area


def write_pattern_csv(pattern: SearchPattern, path) -> None:
    lines = ["index,dx_mm,dy_mm"]
    for k, (dx, dy) in enumerate(pattern.offsets):
        lines.append(f"{k},{float(dx)!r},{float(dy)!r}")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
