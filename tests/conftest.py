"""Shared fixtures: one real collected dataset and trained ridge models."""

import numpy as np
import pytest

from pegservo.geometry import CameraModel, vec3
from pegservo.perception import Dataset, TrainConfig, train
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
