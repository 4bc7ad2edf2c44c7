"""Isometric-grid spiral search patterns.

The fallback search attempts insertions at the points of a triangular
lattice, visited outward from the center. The lattice covering radius for
spacing s is s/sqrt(3), so spacing ss = tolerance*sqrt(3) is the coarsest
grid that still guarantees a hit anywhere inside the searched disc.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidRadius, InvalidTolerance, csv_text, write_artifact

# Norms are rounded to this quantum before ordering so that lattice points on
# the same ring compare equal despite float construction jitter.
_NORM_QUANTUM = 1e-9
_MAX_OFFSETS = 10**6  # the most a pattern may hold: ~150 MB of lattice arrays
# About 2 pi / sqrt(3) * (bound / s)**2 lattice points lie in the disc and bound / s
# = (max_radius / tolerance + 1) / sqrt(3), so _MAX_OFFSETS caps max_radius / tolerance
_MAX_RADIUS_PER_TOLERANCE = np.sqrt(_MAX_OFFSETS * 3.0 * np.sqrt(3.0) / (2.0 * np.pi)) - 1.0
_MAX_TOLERANCE = 1e7  # mm: a capped pattern's ring keys, norm / _NORM_QUANTUM, fit an int64


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

    @cached_property
    def reach(self) -> tuple:
        """The running maximum of the offsets' norms (read-only) and its largest excess over a
        norm, the ring quantum in ring order: computed once, for sim.spiral_search's ring band."""
        norms = np.hypot(self.offsets[:, 0], self.offsets[:, 1])
        reach = np.maximum.accumulate(norms)
        reach.flags.writeable = False
        return reach, (reach - norms).max(initial=0.0)


@lru_cache(maxsize=16)
def generate_pattern(tolerance: float, max_radius: float) -> SearchPattern:
    """Build the search pattern for a given tolerance and search radius.

    Includes every lattice point with norm <= max_radius + tolerance; the
    margin keeps targets just inside the rim covered. Patterns are memoized
    per (tolerance, max_radius), so callers share one read-only pattern.
    """
    if not 0 < tolerance <= _MAX_TOLERANCE:
        raise InvalidTolerance(f"tolerance must be > 0 and <= {_MAX_TOLERANCE:g} mm, "
                               f"got {tolerance}")
    if not 0 <= max_radius < np.inf:
        raise InvalidRadius(f"max_radius must be finite and >= 0, got {max_radius}")
    if max_radius / _MAX_RADIUS_PER_TOLERANCE > tolerance:  # a division: no overflow
        raise InvalidTolerance(f"tolerance {tolerance} with max_radius {max_radius} "
                               f"makes more than {_MAX_OFFSETS} offsets")
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


def write_pattern_csv(pattern: SearchPattern, path) -> None:
    write_artifact(path, csv_text(["index", "dx_mm", "dy_mm"],
                                  [(k, *xy) for k, xy in enumerate(pattern.offsets)]))
