"""Shared fixtures (one real collected dataset and trained ridge models) and
the reference helpers the tests check the library against."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pegservo.geometry import CameraModel, inplane_norm, vec3
from pegservo.perception import (Dataset, MlpModel, TrainConfig, _fit_input,
                                 _mlp_init, _mlp_layers, _mlp_loss_grads,
                                 featurize, train)
from pegservo.pipeline import CollectionConfig, collect_dataset, split_by_insertion
from pegservo.search import generate_pattern
from pegservo.sim import Observation, WorldConfig, new_world

RIDGE_HYPER = TrainConfig(kind="ridge", robust_norm=True)


def synthetic_dataset(n_insertions, per_insertion, r, label_fn, seed=0,
                      pixel_fn=None):
    """Random-image one-camera dataset with labels (and ground truth) from
    label_fn(flat_pixels, rng)."""
    rng = np.random.default_rng(seed)
    cam = CameraModel(position=vec3(0, 0, 500.0),
                      orientation=np.diag([1.0, -1.0, -1.0]),
                      f=1000.0, r=r, z=500.0)
    n = n_insertions * per_insertion
    images = np.empty((n, r, r), dtype=np.float32)
    y = np.empty(n)
    for k in range(n):
        if pixel_fn is None:
            images[k] = rng.uniform(0.0, 1.0, size=(r, r))
        else:
            images[k] = pixel_fn(rng)
        y[k] = label_fn(images[k].ravel().astype(np.float64), rng)
    zeros = np.zeros(n, dtype=np.int64)
    return Dataset(images=images, rows=np.arange(n),
                   insertion_id=np.arange(n) // per_insertion,
                   camera_index=zeros, y=y, truth_y=y.copy(),
                   q_mm=zeros.astype(float), height_mm=zeros.astype(float),
                   cameras=(cam,))


def covering_radius(pattern, region_radius, grid_step):
    """Worst-case distance from any point of the search disc to the pattern.

    Dense-samples the disc of region_radius on a square grid of pitch
    grid_step and returns the maximum nearest-offset distance. A value
    <= tolerance certifies the coverage guarantee at the sampled density.
    """
    axis = np.arange(-region_radius, region_radius + grid_step / 2.0, grid_step)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= region_radius + 1e-12]
    if len(pts) == 0:
        pts = np.zeros((1, 2))
    dists, _ = cKDTree(pattern.offsets).query(pts, k=1)
    return float(np.max(dists))


def attempt_insertion(world, tcp=None):
    """Stroke a block of one down at the given (3,) or (1, 3) (default current) TCP and
    report success: the per-attempt reference that spiral_search reproduces.

    Success iff the in-plane peg-hole distance is <= tolerance. Charges no
    time.
    """
    peg = np.reshape(world.tcp if tcp is None else tcp, 3) + world.basis @ world.grasp_offset[0]
    miss = inplane_norm(world.true_hole[0] - peg,
                        world.config.insertion_direction)
    return float(miss) <= world.config.tolerance


def init_mlp(ds, hyper):
    """The untrained MLP (kind="mlp" hyper) that train starts from on ds."""
    spec, X = _fit_input(ds, hyper.robust_norm)
    return MlpModel(params=_mlp_init(X.shape[1], hyper)[0], spec=spec,
                    hidden=tuple(hyper.hidden))


def gradient_check(model, ds, n_checks=100):
    """Compare an MLP's analytic gradients to central differences of step 1e-5.

    Returns the maximum relative deviation over n_checks parameter
    coordinates, drawn from a stream seeded with 0, on ds's first 32 samples.
    """
    step, rng = 1e-5, np.random.default_rng(0)
    X = featurize(ds.images[ds.rows[:32]], model.spec)
    y = ds.y[:32]
    params = model.params
    _, _, grads = _mlp_loss_grads(params, X, y)
    sizes = [p.size for p in params]
    total = int(np.sum(sizes))
    coords = rng.choice(total, size=min(n_checks, total), replace=False)
    bounds = np.cumsum([0] + sizes)
    worst = 0.0
    for c in coords:
        k = int(np.searchsorted(bounds, c, side="right") - 1)
        flat_idx = int(c - bounds[k])
        orig = params[k].flat[flat_idx]
        params[k].flat[flat_idx] = orig + step
        lp, _, _ = _mlp_loss_grads(params, X, y)
        params[k].flat[flat_idx] = orig - step
        lm, _, _ = _mlp_loss_grads(params, X, y)
        params[k].flat[flat_idx] = orig
        gd = (lp - lm) / (2.0 * step)
        ga = grads[k].flat[flat_idx]
        denom = max(abs(ga), abs(gd), 1e-10)
        worst = max(worst, abs(ga - gd) / denom)
    return worst


def predict_rows(model, X):
    """A ridge or MLP model's prediction for each feature row of X, one row's
    product at a time: the reference for the library's stacked product."""
    product = ((lambda x: x @ model.weights + model.bias) if model.kind == "ridge"
               else lambda x: _mlp_layers(model.params, x)[-1])
    return np.array([product(X[k:k + 1])[0] for k in range(len(X))])


def observation(ds, i):
    """Sample i of a dataset as the Observation render would have made."""
    return Observation(pixels=ds.images[ds.rows[i]], truth_y=float(ds.truth_y[i]))


def led_factory(i):
    return new_world(WorldConfig(component_style="led", seed=1000 + i))


@pytest.fixture(scope="session")
def led_dataset():
    cfg = CollectionConfig()
    pattern = generate_pattern(0.1, cfg.max_offset_mag)
    return collect_dataset(led_factory, cfg, pattern)


@pytest.fixture(scope="session")
def led_split(led_dataset):
    return split_by_insertion(led_dataset, 8, seed=0)


@pytest.fixture(scope="session")
def led_ridge(led_split):
    train_ds, val_ds = led_split
    out = {}
    for j in (0, 1):
        out[j] = train(train_ds.by_camera(j), val_ds.by_camera(j), RIDGE_HYPER)
    return out
