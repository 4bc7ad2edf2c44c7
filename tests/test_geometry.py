"""Error-direction geometry and least-squares reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.errors import (BehindCamera, DegenerateView, InsufficientViews,
                             InvalidConfig)
from pegservo.geometry import (RANK_RATIO, CameraModel, _cross, _rank_deficient,
                               aimed_camera, camera_from_dict,
                               camera_to_dict, denormalize_error,
                               error_direction, inplane_basis,
                               inplane_component, inplane_norm,
                               normalize_error, project, reconstruct_error,
                               scalar_error, unit, vec3)

L = vec3(0.0, 0.0, -1.0)


def _cam(f=1000.0, r=64, z=500.0):
    # identity orientation: x=(1,0,0), y=(0,1,0), optical=(0,0,1)
    return CameraModel(position=vec3(0, 0, 0), orientation=np.eye(3),
                       f=f, r=r, z=z)


def test_error_direction_axis_case():
    # l x v = (0,0,-1) x (1,0,0) = (0*0-(-1)*0, (-1)*1-0*0, 0*0-0*1) = (0,-1,0)
    u = error_direction(L, vec3(1.0, 0.0, 0.0))
    assert np.array_equal(u, vec3(0.0, -1.0, 0.0))


def test_error_direction_unit_and_perpendicular():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        l = rng.normal(size=3)
        l /= np.linalg.norm(l)
        v = rng.normal(size=3)
        if np.linalg.norm(np.cross(l, v)) < 1e-6:
            continue
        u = error_direction(l, v)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-9
        assert abs(np.dot(u, l)) <= 1e-9
        assert abs(np.dot(u, v)) <= 1e-9 * np.linalg.norm(v)


def test_error_direction_degenerate_view():
    with pytest.raises(DegenerateView):
        error_direction(L, vec3(0.0, 0.0, -7.0))


def test_scalar_error_hand_values():
    assert scalar_error(vec3(0.3, -0.2, 0.0), vec3(0.0, 1.0, 0.0)) == -0.2
    # (0.3, 0.4, 0) . (0.6, 0.8, 0) = 0.18 + 0.32 = 0.5
    assert scalar_error(vec3(0.3, 0.4, 0.0), vec3(0.6, 0.8, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_normalize_error_hand_value():
    cam = _cam()
    # y = q f / (r z) = 0.5 * 1000 / (64 * 500) = 0.015625, exact in binary
    assert normalize_error(0.5, cam) == 0.015625
    assert normalize_error(0.0, cam) == 0.0
    assert denormalize_error(0.015625, cam) == 0.5


def test_normalize_roundtrip_and_linearity():
    cam = _cam(f=731.0, r=48, z=412.5)
    for q in np.linspace(-10.0, 10.0, 101):
        back = denormalize_error(normalize_error(q, cam), cam)
        assert back == pytest.approx(q, rel=1e-12, abs=1e-15)
    assert normalize_error(2.0, cam) == pytest.approx(2 * normalize_error(1.0, cam), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(q=st.floats(-1e6, 1e6), f=st.floats(1.0, 1e5), r=st.integers(1, 4096),
       z=st.floats(1.0, 1e5))
def test_normalize_roundtrip_property(q, f, r, z):
    cam = _cam(f=f, r=r, z=z)
    back = denormalize_error(normalize_error(q, cam), cam)
    assert back == pytest.approx(q, rel=1e-12, abs=1e-12)


def test_reconstruct_orthonormal_rows():
    rec = reconstruct_error([vec3(1, 0, 0), vec3(0, 1, 0)], [0.3, -0.2])
    assert not rec.ill_conditioned
    assert np.allclose(rec.error, [0.3, -0.2, 0.0], atol=1e-12)


def test_reconstruct_two_views_60_degrees():
    # u2.e = 0.5*ex + 0.86603*ey = 0.2 with ex = 0.1 -> ey = 0.15/0.86603
    rec = reconstruct_error([vec3(1, 0, 0), vec3(0.5, 0.86603, 0)], [0.1, 0.2])
    assert not rec.ill_conditioned
    assert np.allclose(rec.error, [0.1, 0.17320, 0.0], atol=1e-4)


def test_reconstruct_parallel_rows_flagged_min_norm():
    rec = reconstruct_error([vec3(1, 0, 0), vec3(1, 0, 0)], [0.2, 0.4])
    assert rec.ill_conditioned
    # min-norm least squares = mean along the shared direction
    assert np.allclose(rec.error, [0.3, 0.0, 0.0], atol=1e-12)


def test_reconstruct_requires_two_views():
    with pytest.raises(InsufficientViews):
        reconstruct_error([vec3(1, 0, 0)], [0.1])
    with pytest.raises(InsufficientViews):
        reconstruct_error([vec3(1, 0, 0), vec3(0, 1, 0)], [0.1])


def test_reconstruct_roundtrip_random_scenes():
    # planted in-plane error, 2-4 cameras; labels are exact
    rng = np.random.default_rng(11)
    B = inplane_basis(L)
    for _ in range(200):
        e = B @ rng.uniform(-2.0, 2.0, size=2)
        n_cams = int(rng.integers(2, 5))
        dirs, qs = [], []
        for _ in range(n_cams):
            pos = rng.normal(size=3) * 300.0
            pos[2] = abs(pos[2]) + 100.0
            view = -pos
            if np.linalg.norm(np.cross(L, view)) < 1e-3 * np.linalg.norm(view):
                view = view + vec3(50.0, 0.0, 0.0)
            u = error_direction(L, view)
            dirs.append(u)
            qs.append(scalar_error(e, u))
        rec = reconstruct_error(dirs, qs)
        assert np.linalg.norm(rec.error - e) <= 1e-9
        assert abs(np.dot(rec.error, L)) <= 1e-9


_angle = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=200, deadline=None)
@given(tilt=st.floats(0.0, 1.5), azimuth=_angle,
       coeffs=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
       first=_angle, gap=st.floats(0.1, math.pi - 0.1),
       others=st.lists(_angle, max_size=3))
def test_reconstruct_recovers_inplane_error_property(tilt, azimuth, coeffs,
                                                      first, gap, others):
    # 2-5 in-plane views; the first two are at least 0.1 rad from parallel
    l = vec3(math.sin(tilt) * math.cos(azimuth),
             math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))
    B = inplane_basis(l)
    e = B @ np.array(coeffs)
    dirs = [B @ np.array([math.cos(a), math.sin(a)])
            for a in [first, first + gap, *others]]
    rec = reconstruct_error(dirs, [scalar_error(e, u) for u in dirs])
    assert not rec.ill_conditioned
    assert np.linalg.norm(rec.error - e) <= 1e-9 * (1.0 + np.linalg.norm(e))
    assert abs(np.dot(rec.error, l)) <= 1e-9 * (1.0 + np.linalg.norm(e))


def _reference_reconstruct(dirs, qs):
    """reconstruct_error with its former separate SVD for the rank test."""
    U = np.asarray(dirs, dtype=float).reshape(-1, 3)
    svals = np.linalg.svd(U, compute_uv=False)
    e_hat, *_ = np.linalg.lstsq(U, np.asarray(qs, dtype=float), rcond=RANK_RATIO)
    return e_hat, bool(svals[1] <= RANK_RATIO * svals[0])


# Two unit rows at angle t have singular values in the ratio tan(t/2), so
# views this far apart sit on either side of the RANK_RATIO threshold.
_THRESHOLD_ANGLE = 2.0 * math.atan(RANK_RATIO)
_gaps = st.one_of(_angle, st.builds(lambda base, k: base + k * _THRESHOLD_ANGLE,
                                    st.sampled_from([0.0, math.pi]),
                                    st.one_of(st.floats(-3.0, 3.0),
                                              st.sampled_from([-1.0, 1.0]))))


@settings(max_examples=400, deadline=None)
@given(tilt=st.floats(0.0, 1.5), azimuth=_angle, first=_angle,
       gaps=st.lists(_gaps, min_size=1, max_size=4),
       qs=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
def test_reconstruct_rank_flag_matches_a_separate_svd(tilt, azimuth, first, gaps, qs):
    # 2-5 in-plane views, many of them near-parallel or near-antiparallel
    l = vec3(math.sin(tilt) * math.cos(azimuth),
             math.sin(tilt) * math.sin(azimuth), -math.cos(tilt))
    B = inplane_basis(l)
    dirs = [B @ np.array([math.cos(first + g), math.sin(first + g)])
            for g in [0.0, *gaps]]
    rec = reconstruct_error(dirs, qs[:len(dirs)])
    e_hat, ill = _reference_reconstruct(dirs, qs[:len(dirs)])
    assert rec.ill_conditioned == ill
    assert rec.error.tobytes() == e_hat.tobytes()
    # a second solve of the same directions reads the flag back from the cache
    assert reconstruct_error(dirs, qs[::-1][:len(dirs)]).ill_conditioned == ill


def test_the_rank_flag_is_one_svd_per_direction_matrix(monkeypatch):
    # a servo step solves every world against its calibration's one direction
    # matrix: the rank test runs once for it, however many solves follow
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
    _rank_deficient.cache_clear()
    dirs = [vec3(1, 0, 0), vec3(0.6, 0.8, 0)]
    recs = [reconstruct_error(dirs, [q, 0.5 * q]) for q in np.linspace(-1.0, 1.0, 50)]
    assert len(calls) == 1 and not any(rec.ill_conditioned for rec in recs)
    assert reconstruct_error([vec3(1, 0, 0), vec3(1, 0, 0)], [0.2, 0.4]).ill_conditioned
    assert len(calls) == 2


# finite floats, +-0.0, subnormals and +-inf; NaN comes from inf * 0 and inf - inf
_coord = st.floats(allow_nan=False, allow_subnormal=True)
_vec = st.tuples(_coord, _coord, _coord).map(np.array)


@settings(max_examples=400, deadline=None)
@given(a=_vec, b=_vec)
def test_cross_is_np_cross_bit_for_bit(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.cross(a, b)
    got = _cross(a, b)
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_project_principal_point_and_hand_value():
    cam = _cam()
    assert project(cam, vec3(0, 0, 123.4)) == (32.0, 32.0)
    # px = 32 + 1000*0.05/500 = 32.1
    px, py = project(cam, vec3(0.05, 0.0, 500.0))
    assert px == pytest.approx(32.1, abs=1e-12)
    assert py == pytest.approx(32.0, abs=1e-12)


def test_project_behind_camera():
    cam = _cam()
    with pytest.raises(BehindCamera):
        project(cam, vec3(0.0, 0.0, 0.0))
    with pytest.raises(BehindCamera):
        project(cam, vec3(0.0, 0.0, -5.0))


def test_camera_model_validation():
    with pytest.raises(InvalidConfig):
        CameraModel(position=vec3(0, 0, 0), orientation=np.ones((3, 3)),
                    f=1000.0, r=64, z=500.0)
    with pytest.raises(InvalidConfig):
        CameraModel(position=vec3(0, 0, 0), orientation=np.eye(3),
                    f=-1.0, r=64, z=500.0)


def test_aimed_camera_axes():
    pos = vec3(400.0, 0.0, 300.0)
    cam = aimed_camera(pos, vec3(0, 0, 0), L, f=1000.0, r=64)
    view = -pos
    assert np.allclose(cam.optical_axis, view / np.linalg.norm(view), atol=1e-12)
    assert np.allclose(cam.orientation[0], error_direction(L, view), atol=1e-12)
    assert cam.z == pytest.approx(500.0, rel=1e-12)
    R = cam.orientation
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0, rel=1e-9)


def test_inplane_basis_and_component():
    B = inplane_basis(L)
    assert B.shape == (3, 2)
    assert np.allclose(B.T @ L, 0.0, atol=1e-12)
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-12)
    v = vec3(0.3, -0.7, 2.0)
    ip = inplane_component(v, L)
    assert abs(np.dot(ip, L)) <= 1e-12
    assert np.allclose(ip, vec3(0.3, -0.7, 0.0), atol=1e-12)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


_coordinates = st.floats(-1e100, 1e100)
_directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda d: math.hypot(*d) > 0.1).map(unit)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.lists(st.tuples(*[_coordinates] * 3), max_size=8),
       per_row=st.booleans())
def test_stacked_kernels_are_their_rows_bit_for_bit(data, rows, per_row):
    v = np.array(rows, dtype=float).reshape(-1, 3)
    if per_row:
        l = np.array(data.draw(st.lists(_directions, min_size=len(v),
                                        max_size=len(v)))).reshape(-1, 3)
    else:
        l = data.draw(_directions)
    component, norm, q = inplane_component(v, l), inplane_norm(v, l), scalar_error(v, l)
    assert component.shape == v.shape and norm.shape == q.shape == (len(v),)
    for i, vi in enumerate(v):
        li = l[i] if per_row else l
        # each row is the one-vector call, which is the one-vector numpy spelling
        e = vi - np.dot(vi, li) * li
        assert _bits(component[i]) == _bits(inplane_component(vi, li)) == _bits(e)
        assert _bits(norm[i]) == _bits(inplane_norm(vi, li)) == _bits(np.linalg.norm(e))
        assert _bits(q[i]) == _bits(scalar_error(vi, li)) == _bits(np.dot(vi, li))
        assert isinstance(scalar_error(vi, li), float) and isinstance(inplane_norm(vi, li), float)


def test_camera_dict_roundtrip():
    cam = aimed_camera(vec3(100.0, -50.0, 400.0), vec3(0, 0, 0), L, 800.0, 48)
    back = camera_from_dict(camera_to_dict(cam))
    assert np.array_equal(back.position, cam.position)
    assert np.array_equal(back.orientation, cam.orientation)
    assert (back.f, back.r, back.z) == (cam.f, cam.r, cam.z)
