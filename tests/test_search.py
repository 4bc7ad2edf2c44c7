"""Isometric-grid spiral search pattern."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import covering_radius
from pegservo.errors import InvalidRadius, InvalidTolerance, IoError
from pegservo.search import _MAX_OFFSETS, generate_pattern, write_pattern_csv

S = 0.1 * math.sqrt(3.0)  # spacing for eps = 0.1


def test_spacing_rule():
    p = generate_pattern(0.1, 1.0)
    assert p.spacing == pytest.approx(S, rel=1e-12)
    assert p.tolerance == 0.1
    assert p.max_radius == 1.0


def test_single_point_pattern():
    # ring-1 norm is s = 0.1732 > 0 + eps = 0.1, so only the center survives
    p = generate_pattern(0.1, 0.0)
    assert len(p) == 1
    assert np.array_equal(p.offsets[0], [0.0, 0.0])


def test_first_hex_ring():
    # max_radius = s brings in exactly the 6 ring-1 neighbours
    p = generate_pattern(0.1, S)
    assert len(p) == 7
    norms = np.linalg.norm(p.offsets, axis=1)
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], S, atol=1e-12)


def test_default_pattern_count():
    assert len(generate_pattern(0.1, 1.0)) == 151


def test_hex_ring_counts():
    # 1 + sum 6i points within k full rings
    p = generate_pattern(0.1, 10.0)
    norms = np.linalg.norm(p.offsets, axis=1)
    for k in (1, 2, 3, 5):
        expect = 1 + 3 * k * (k + 1)
        assert int(np.sum(norms <= k * S + 1e-9)) == expect


def test_ordering_norm_then_ccw_angle():
    p = generate_pattern(0.1, 1.0)
    norms = np.linalg.norm(p.offsets, axis=1)
    assert np.all(np.diff(norms) >= -1e-9)
    angles = np.mod(np.arctan2(p.offsets[:, 1], p.offsets[:, 0]), 2 * np.pi)
    for i in range(len(p) - 1):
        if abs(norms[i + 1] - norms[i]) <= 1e-9 and norms[i] > 0:
            assert angles[i + 1] > angles[i]


def test_offsets_on_lattice_and_unique():
    p = generate_pattern(0.07, 1.5)
    s = p.spacing
    # invert the lattice basis (s,0), (s/2, s*sqrt(3)/2)
    j = p.offsets[:, 1] / (s * math.sqrt(3.0) / 2.0)
    i = p.offsets[:, 0] / s - 0.5 * j
    assert np.allclose(i, np.round(i), atol=1e-9)
    assert np.allclose(j, np.round(j), atol=1e-9)
    assert len({(round(a, 9), round(b, 9)) for a, b in p.offsets}) == len(p)


def test_covering_radius_trivial_cases():
    p1 = generate_pattern(0.1, 0.0)
    assert covering_radius(p1, 0.0, 0.01) == 0.0
    # lone center point vs unit disc: farthest sample is ~1 away
    assert covering_radius(p1, 1.0, 0.01) == pytest.approx(1.0, abs=0.02)


def test_covering_radius_guarantee():
    p = generate_pattern(0.1, 1.0)
    assert covering_radius(p, 1.0, 0.005) <= 0.1


def test_coverage_property_grid():
    for eps in (0.05, 0.1, 0.3):
        for radius in (0.5, 1.0, 2.0):
            p = generate_pattern(eps, radius)
            assert covering_radius(p, radius, eps / 20.0) <= eps, (eps, radius)


@settings(max_examples=40, deadline=None)
@given(tol=st.floats(0.05, 0.3), frac=st.floats(0.0, 1.0))
def test_pattern_covers_its_disc(tol, frac):
    radius = 20.0 * tol * frac
    assert covering_radius(generate_pattern(tol, radius), radius, tol / 5.0) <= tol


def test_density_matches_lattice():
    # triangular lattice density 2/(sqrt(3) s^2), within 5% for R >= 10 s
    for eps in (0.05, 0.1):
        s = eps * math.sqrt(3.0)
        p = generate_pattern(eps, 12.0 * s)
        expect = 2.0 / (math.sqrt(3.0) * s * s)
        density = len(p) / (math.pi * (p.max_radius + p.tolerance) ** 2)
        assert density == pytest.approx(expect, rel=0.05)


def test_determinism():
    a = generate_pattern(0.1, 1.0)
    b = generate_pattern(0.1, 1.0)
    assert np.array_equal(a.offsets, b.offsets)


def test_invalid_inputs():
    with pytest.raises(InvalidTolerance):
        generate_pattern(0.0, 1.0)
    with pytest.raises(InvalidTolerance):
        generate_pattern(-0.1, 1.0)
    with pytest.raises(InvalidRadius):
        generate_pattern(0.1, -0.5)
    for tolerance in (math.inf, math.nan):
        with pytest.raises(InvalidTolerance):
            generate_pattern(tolerance, 1.0)
    for max_radius in (math.inf, math.nan):
        with pytest.raises(InvalidRadius):
            generate_pattern(0.1, max_radius)


def test_oversized_pattern_is_refused_before_allocating():
    # about 2 pi / sqrt(3) * ((max_radius + tol) / (tol sqrt 3))**2 lattice points
    for tolerance, max_radius in ((1e-300, 1.0), (5e-324, 0.5), (0.001, 5.0), (0.1, 1e300)):
        with pytest.raises(InvalidTolerance, match="more than"):
            generate_pattern(tolerance, max_radius)
    # the refusal sits far above the default tolerance's patterns
    assert 10 * len(generate_pattern(0.1, 10.0)) < _MAX_OFFSETS


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_finite_inputs_fail_typed_without_overflow():
    # the refusals divide, so no product overflows first; a pattern's ring
    # keys fit an int64 up to the largest tolerance
    for tolerance, max_radius in ((1e300, 1.0), (1.7e308, 1.7e308), (0.1, 1.7e308)):
        with pytest.raises(InvalidTolerance):
            generate_pattern(tolerance, max_radius)
    assert len(generate_pattern(1e7, 1e9)) > 10_000


def test_pattern_csv(tmp_path):
    p = generate_pattern(0.1, S)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,dx_mm,dy_mm"
    assert len(lines) == 1 + 7
    assert lines[1] == "0,0.0,0.0"
    k, dx, dy = lines[2].split(",")
    assert (float(dx), float(dy)) == (p.offsets[1][0], p.offsets[1][1])


def test_pattern_csv_io_error_is_typed(tmp_path):
    with pytest.raises(IoError):
        write_pattern_csv(generate_pattern(0.1, S), tmp_path / "missing" / "pattern.csv")


def test_memoized_pattern_is_shared_and_read_only():
    p = generate_pattern(0.1, 1.0)
    assert generate_pattern(0.1, 1.0) is p
    assert not p.offsets.flags.writeable
    with pytest.raises(ValueError):
        p.offsets[0, 0] = 1.0
