"""Error regressors: features, training loop, early stopping, gradient
check, IO."""

import hashlib
import json
import math
import struct
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pegservo.perception
from conftest import (RIDGE_HYPER, gradient_check, init_mlp, observation,
                      predict_rows, synthetic_dataset)
from pegservo.errors import (CorruptArtifact, EmptyDataset, InvalidConfig,
                             LeakedInsertion, NonFiniteLoss, ShapeMismatch)
from pegservo.geometry import CameraModel, denormalize_error, vec3
from pegservo.perception import (_FEATURE_ROWS, Dataset, InputSpec, MlpModel, OracleModel,
                                 RidgeModel, TrainConfig, _fit_input, _metrics, _mlp_layers,
                                 _mlp_shapes, evaluate, featurize, load_dataset, load_model,
                                 predict, predict_views, save_dataset, save_model,
                                 train)
from pegservo.sim import Observation


def _split(ds, n_train_ins):
    ids = sorted(ds.grouping)
    return ds.subset(ids[:n_train_ins]), ds.subset(ids[n_train_ins:])


# ---------------------------------------------------------------- oracle


def test_oracle_noiseless_returns_truth():
    ds = synthetic_dataset(3, 10, 4, lambda x, rng: rng.normal())
    model = OracleModel()
    for i in range(len(ds)):
        assert predict(model, observation(ds, i)) == ds.truth_y[i]
    assert evaluate(model, ds)["mse"] == 0.0


def test_oracle_noise_mse_matches_sigma_squared():
    sigma = 0.013
    ds = synthetic_dataset(10, 1000, 2, lambda x, rng: rng.normal())
    res = evaluate(OracleModel(noise_sigma=sigma), ds)
    assert res["mse"] == pytest.approx(sigma ** 2, rel=0.10)


# ---------------------------------------------------------------- ridge


def test_constant_model_prediction_and_mse():
    ds = synthetic_dataset(2, 50, 4, lambda x, rng: rng.normal())
    spec_model, _ = train(*_split(ds, 1), TrainConfig(kind="ridge"))
    zero = RidgeModel(weights=np.zeros_like(spec_model.weights), bias=0.01,
                      lam=1.0, spec=spec_model.spec)
    assert predict(zero, observation(ds, 0)) == pytest.approx(0.01, abs=1e-12)
    zero0 = RidgeModel(weights=np.zeros_like(spec_model.weights), bias=0.0,
                       lam=1.0, spec=spec_model.spec)
    res = evaluate(zero0, ds)
    assert res["mse"] == pytest.approx(float(np.mean(ds.y ** 2)), abs=1e-9)


def test_all_zero_labels():
    ds = synthetic_dataset(4, 40, 4, lambda x, rng: 0.0)
    model, report = train(*_split(ds, 3), TrainConfig(kind="ridge"))
    val = _split(ds, 3)[1]
    preds = [predict(model, observation(val, i)) for i in range(len(val))]
    assert np.max(np.abs(preds)) <= 1e-6
    assert report.best_val_loss <= 1e-10


def test_planted_linear_recovery():
    r = 4
    w_true = np.linspace(-0.02, 0.03, r * r)

    def label(x, rng):
        return float(x @ w_true + 0.005)

    ds = synthetic_dataset(12, 30, r, label, seed=3)
    train_ds, val_ds = _split(ds, 10)
    model, report = train(train_ds, val_ds, TrainConfig(kind="ridge"))
    assert report.best_val_loss <= 1e-8
    for i in range(50):
        assert predict(model, observation(val_ds, i)) == pytest.approx(
            val_ds.y[i], abs=1e-5)


def test_ridge_path_early_stop_semantics():
    ds = synthetic_dataset(6, 40, 4, lambda x, rng: float(x[0] + 0.1 * rng.normal()))
    model, report = train(*_split(ds, 5), TrainConfig(kind="ridge"))
    assert report.best_val_loss == pytest.approx(min(report.val_curve), abs=0.0)
    assert report.epochs_run == len(report.val_curve)
    assert report.epochs_run <= 500


def test_trained_ridge_quarter_pixel_accuracy(led_split, led_ridge):
    # quarter-pixel in normalized units = 0.25 / r
    _, val_ds = led_split
    for j, (model, _) in led_ridge.items():
        sub = val_ds.by_camera(j)
        errs = np.array([abs(predict(model, observation(sub, i)) - sub.y[i])
                         for i in range(len(sub))])
        frac = float(np.mean(errs <= 0.25 / val_ds.r))
        assert frac >= 0.90, (j, frac)


def test_trained_ridge_passes_gate(led_split, led_ridge):
    _, val_ds = led_split
    for j, (model, _) in led_ridge.items():
        res = evaluate(model, val_ds.by_camera(j))
        assert res["mae_mm"] <= 0.05, (j, res)


def test_train_determinism(led_split):
    train_ds, val_ds = led_split
    a, _ = train(train_ds.by_camera(0), val_ds.by_camera(0), RIDGE_HYPER)
    b, _ = train(train_ds.by_camera(0), val_ds.by_camera(0), RIDGE_HYPER)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.lam == b.lam


def test_mean_regression_toward_clean_labels():
    # training on noise-corrupted labels must beat the noisy labels
    # themselves when scored against the clean ones
    r = 6
    w_true = np.linspace(-0.01, 0.02, r * r)

    def label(x, rng):
        return float(x @ w_true)

    wins = 0
    for seed in range(10):
        ds = synthetic_dataset(10, 40, r, label, seed=100 + seed)
        rng = np.random.default_rng(seed)
        sigma = 0.3 * float(np.std(ds.y))
        nds = replace(ds, y=ds.y + sigma * rng.normal(size=len(ds)))
        tr, va = _split(nds, 8)
        model, _ = train(tr, va, TrainConfig(kind="ridge"))
        # clean label for a noisy sample = label recomputed from pixels
        clean_va = np.array([label(p.ravel().astype(np.float64), None)
                             for p in va.pixels()])
        preds = np.array([predict(model, observation(va, i)) for i in range(len(va))])
        mse_model = float(np.mean((preds - clean_va) ** 2))
        mse_noise = float(np.mean((va.y - clean_va) ** 2))
        wins += mse_model <= mse_noise
    assert wins == 10


# ---------------------------------------------------------------- mlp


def _mlp_hyper(**kw):
    base = dict(kind="mlp", hidden=(16, 16), learning_rate=1e-3,
                max_epochs=30, patience=5, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_mlp_trains_and_gradient_check():
    r = 6
    w_true = np.linspace(-0.05, 0.05, r * r)
    ds = synthetic_dataset(8, 40, r, lambda x, rng: float(x @ w_true))
    tr, va = _split(ds, 6)
    hyper = _mlp_hyper()
    fresh = init_mlp(tr, hyper)
    assert gradient_check(fresh, tr, n_checks=100) <= 1e-4
    model, report = train(tr, va, hyper)
    assert report.best_val_loss <= report.val_curve[0]
    assert gradient_check(model, va, n_checks=100) <= 1e-4


def test_mlp_zero_input_batch_stays_finite():
    # constant pixels give zero feature variance; the std floor must keep
    # standardization, prediction and the gradient probe free of nan/inf.
    # (relu units sit exactly on their kink here, so the deviation itself
    # is allowed to be large -- only finiteness is meaningful.)
    ds = synthetic_dataset(2, 20, 4, lambda x, rng: rng.normal(),
                           pixel_fn=lambda rng: np.zeros((4, 4)))
    hyper = _mlp_hyper()
    model = init_mlp(ds, hyper)
    preds = [predict(model, observation(ds, i)) for i in range(len(ds))]
    assert np.all(np.isfinite(preds))
    assert np.isfinite(gradient_check(model, ds, n_checks=100))


def test_mlp_early_stopping_stops():
    ds = synthetic_dataset(6, 30, 4, lambda x, rng: rng.normal())  # pure noise
    model, report = train(*_split(ds, 5),
                          _mlp_hyper(max_epochs=300, patience=3))
    assert report.stopped_early
    assert report.epochs_run < 300
    assert report.best_val_loss == pytest.approx(min(report.val_curve), abs=0.0)


def test_mlp_init_matches_train_start(monkeypatch):
    ds = synthetic_dataset(4, 20, 4, lambda x, rng: rng.normal())
    hyper = _mlp_hyper(max_epochs=1)
    starts, loss_grads = [], pegservo.perception._mlp_loss_grads

    def first_step(params, X, y):
        starts.append([p.copy() for p in params])
        return loss_grads(params, X, y)

    monkeypatch.setattr(pegservo.perception, "_mlp_loss_grads", first_step)
    train(*_split(ds, 3), hyper)
    for pa, pb in zip(init_mlp(ds, hyper).params, starts[0], strict=True):
        assert np.array_equal(pa, pb)


# ---------------------------------------------------------------- contracts


def test_leaked_insertion_detected():
    ds = synthetic_dataset(4, 10, 4, lambda x, rng: 0.0)
    tr = ds.subset([0, 1, 2])
    va = ds.subset([2, 3])
    with pytest.raises(LeakedInsertion):
        train(tr, va, TrainConfig(kind="ridge"))


def test_empty_dataset_rejected():
    ds = synthetic_dataset(2, 10, 4, lambda x, rng: 0.0)
    empty = ds.subset([])
    assert len(empty) == 0 and empty.r == ds.r
    with pytest.raises(EmptyDataset):
        train(empty, ds, TrainConfig(kind="ridge"))
    with pytest.raises(EmptyDataset):
        evaluate(OracleModel(), empty)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("hyper", [TrainConfig(kind="ridge"),
                                   _mlp_hyper(max_epochs=3)], ids=["ridge", "mlp"])
@pytest.mark.parametrize("nan_split", [0, 1], ids=["train", "val"])
def test_nan_pixel_in_either_split_is_a_non_finite_loss(hyper, nan_split):
    # no step reaches a finite validation loss: neither a model fitted from
    # no candidate nor the untrained initial MLP may come back
    ds = synthetic_dataset(4, 10, 4, lambda x, rng: rng.normal())
    images = ds.images.copy()
    images[ds.rows[ds.insertion_id == 3 * nan_split][0], 1, 2] = np.nan
    with pytest.raises(NonFiniteLoss):
        train(*_split(replace(ds, images=images), 3), hyper)


def test_shape_mismatch_on_predict():
    ds4 = synthetic_dataset(2, 10, 4, lambda x, rng: 0.0)
    ds8 = synthetic_dataset(2, 10, 8, lambda x, rng: 0.0)
    model, _ = train(*_split(ds4, 1), TrainConfig(kind="ridge"))
    with pytest.raises(ShapeMismatch):
        predict(model, observation(ds8, 0))


@pytest.mark.parametrize("name, low", [("seed", 0), ("max_epochs", 1), ("batch_size", 1),
                                       ("patience", 1)])
def test_train_config_integer_field_is_an_integer(name, low):
    for bad in (2.5, "3", True, None):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            TrainConfig(**{name: bad})
    with pytest.raises(InvalidConfig, match=f"{name} must be >= {low}, got {low - 1}"):
        TrainConfig(**{name: low - 1})
    assert type(getattr(TrainConfig(**{name: np.int64(3)}), name)) is int


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(kind="forest")
    with pytest.raises(InvalidConfig):
        TrainConfig(max_epochs=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(learning_rate=0.0)
    for bad in [dict(hidden=(-1,)), dict(hidden=(12.5,)), dict(hidden=(0,)),
                dict(hidden=(8, True))]:
        with pytest.raises(InvalidConfig):
            TrainConfig(kind="mlp", **bad)
    TrainConfig(kind="mlp", hidden=())


# ---------------------------------------------------------------- io


def test_dataset_roundtrip(tmp_path, led_dataset):
    sub = led_dataset.subset(sorted(led_dataset.grouping)[:2])
    save_dataset(sub, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert len(back) == len(sub)
    assert back.r == sub.r
    assert np.array_equal(sub.pixels(), back.pixels())
    for col in ("truth_y", "y", "insertion_id", "camera_index", "q_mm", "height_mm"):
        assert np.array_equal(getattr(sub, col), getattr(back, col)), col
    for ca, cb in zip(sub.cameras, back.cameras):
        assert np.array_equal(ca.position, cb.position)
        assert ca.r == cb.r


def test_model_roundtrip_ridge(tmp_path, led_dataset, led_ridge):
    model, _ = led_ridge[0]
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.kind == "ridge"
    obs = observation(led_dataset, 0)
    assert predict(back, obs) == predict(model, obs)


def test_model_roundtrip_mlp(tmp_path):
    ds = synthetic_dataset(4, 20, 4, lambda x, rng: rng.normal())
    model, _ = train(*_split(ds, 3), _mlp_hyper(max_epochs=2))
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.kind == "mlp"
    for i in range(10):
        obs = observation(ds, i)
        assert predict(back, obs) == predict(model, obs)


def test_model_roundtrip_oracle(tmp_path):
    save_model(OracleModel(noise_sigma=0.25), tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.kind == "oracle" and back.noise_sigma == 0.25


def test_evaluate_mae_mm_uses_camera_scale(led_split, led_ridge):
    _, val_ds = led_split
    model, _ = led_ridge[0]
    sub = val_ds.by_camera(0)
    res = evaluate(model, sub)
    cam = sub.cameras[0]
    manual = np.mean([abs(denormalize_error(predict(model, observation(sub, i))
                                            - sub.y[i], cam))
                      for i in range(len(sub))])
    assert res["mae_mm"] == pytest.approx(float(manual), rel=1e-9)


@pytest.mark.parametrize("name, edit", [
    ("model.json", lambda meta: meta.pop("kind")),
    ("model.json", lambda meta: meta.update(schema_version=99)),
    ("meta.json", lambda meta: meta.update(schema_version=99)),
    ("meta.json", lambda meta: meta["columns"]["y"].pop()),  # a short label column
    ("meta.json", lambda meta: meta["columns"]["insertion_id"].__setitem__(0, 2**70)),
    ("meta.json", lambda meta: meta["cameras"][0].update(r=3.5)),  # was read as 3
], ids=["model-without-kind", "model-schema-99", "meta-schema-99",
        "meta-sample-without-y", "meta-insertion-id-past-int64", "meta-camera-r-not-integral"])
def test_malformed_artifact_is_typed(tmp_path, name, edit):
    ds = synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal())
    model, _ = train(*_split(ds, 1), TrainConfig(kind="ridge"))
    save_model(model, tmp_path)
    save_dataset(ds, tmp_path)
    path = tmp_path / name
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    with pytest.raises(CorruptArtifact):
        (load_model if name == "model.json" else load_dataset)(tmp_path)


def test_schema_1_artifacts_are_refused(tmp_path):
    # the two directories as schema 1 wrote them: one JSON object per sample
    # in meta.json, float32 weights.bin
    ds = synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal())
    save_dataset(ds, tmp_path / "ds")
    save_model(train(*_split(ds, 1), TrainConfig(kind="ridge"))[0], tmp_path / "m")
    meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
    columns = meta.pop("columns")
    meta.update(schema_version=1,
                samples=[dict(zip(columns, v)) for v in zip(*columns.values())])
    (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))
    meta = json.loads((tmp_path / "m" / "model.json").read_text())
    (tmp_path / "m" / "model.json").write_text(json.dumps({**meta, "schema_version": 1}))
    weights = tmp_path / "m" / "weights.bin"
    weights.write_bytes(np.frombuffer(weights.read_bytes(), "<f8").astype("<f4").tobytes())
    for load, name in ((load_dataset, "ds"), (load_model, "m")):
        with pytest.raises(CorruptArtifact, match="schema_version 1, expected 2"):
            load(tmp_path / name)


@pytest.mark.parametrize("name", ["model.json", "meta.json"])
def test_truncated_artifact_is_typed(tmp_path, name):
    ds = synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal())
    model, _ = train(*_split(ds, 1), TrainConfig(kind="ridge"))
    save_model(model, tmp_path)
    save_dataset(ds, tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CorruptArtifact):
        (load_model if name == "model.json" else load_dataset)(tmp_path)


_RESIZE = {"short": lambda raw: raw[:-4], "torn": lambda raw: raw[:-1],
           "long": lambda raw: raw + bytes(4)}


@pytest.mark.parametrize("resize", sorted(_RESIZE))
@pytest.mark.parametrize("kind", ["ridge", "mlp"])
def test_wrong_sized_weights_are_corrupt(tmp_path, kind, resize):
    ds = synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal())
    model = (init_mlp(ds, _mlp_hyper()) if kind == "mlp"
             else train(*_split(ds, 1), TrainConfig(kind="ridge"))[0])
    save_model(model, tmp_path)
    path = tmp_path / "weights.bin"
    path.write_bytes(_RESIZE[resize](path.read_bytes()))
    with pytest.raises(CorruptArtifact):
        load_model(tmp_path)


@pytest.mark.parametrize("resize", sorted(_RESIZE))
def test_wrong_sized_images_are_corrupt(tmp_path, resize):
    save_dataset(synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal()), tmp_path)
    path = tmp_path / "images.bin"
    path.write_bytes(_RESIZE[resize](path.read_bytes()))
    with pytest.raises(CorruptArtifact):
        load_dataset(tmp_path)


def test_loaded_images_are_writable(tmp_path):
    ds = synthetic_dataset(2, 3, 4, lambda x, rng: rng.normal())
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.images.flags.writeable
    assert back.images.tobytes() == ds.images.tobytes()


# ---------------------------------------------------------------- properties


def _reference_features(pixels, spec):
    """Per-image features as computed one image at a time."""
    x = np.asarray(pixels, dtype=np.float64).ravel()
    if spec.robust:
        m = np.median(x)
        scale = np.percentile(x, 99.0) - m
        if scale < 1e-6:
            scale = 1.0
        x = np.maximum((x - m) / scale, -0.5)
    return (x - spec.feat_mean) / spec.feat_std


@st.composite
def image_batches(draw):
    n = draw(st.integers(1, 6))
    r = draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rendered pixels are float32; float64 images hold values float32 cannot
    # represent, so their statistics must not pass through float32
    dtype, width = draw(st.sampled_from([(np.float32, 32), (np.float64, 64)]))
    if r <= 8:
        images = draw(arrays(dtype, (n, r, r),
                             elements=st.floats(0.0, 1.0, width=width)))
    else:
        images = pixels.random((n, r, r), dtype=dtype)
    for k in range(n):
        kind = draw(st.sampled_from(["drawn", "constant", "levels", "special"]))
        if kind == "constant":  # no spread: hits the robust scale floor
            images[k] = images[k, 0, 0]
        elif kind == "levels":  # a few levels: ties at every rank
            levels = draw(st.lists(st.floats(0.0, 1.0, width=width), min_size=1,
                                   max_size=3))
            images[k] = pixels.choice(np.array(levels, dtype=dtype), (r, r))
        elif kind == "special":
            values = draw(st.lists(st.sampled_from([math.nan, -math.nan, math.inf,
                                                    -math.inf]),
                                   min_size=1, max_size=3))[:r * r]
            at = pixels.choice(r * r, len(values), replace=False)
            images[k].flat[at] = values
    stats = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = InputSpec(r=r, robust=draw(st.booleans()),
                     feat_mean=stats.normal(size=r * r),
                     feat_std=stats.uniform(0.5, 2.0, size=r * r))
    return images, spec


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=200, deadline=None)
@given(batch=image_batches())
def test_featurize_rows_do_not_depend_on_the_batch(batch):
    images, spec = batch
    X = featurize(images, spec)
    assert X.shape == (len(images), spec.r * spec.r)
    for i in range(len(images)):
        assert X[i].tobytes() == featurize(images[i:i + 1], spec)[0].tobytes()
        assert X[i].tobytes() == _reference_features(images[i], spec).tobytes()


def _one_shot_image_features(images, r, robust):
    """_image_features as one pass over the whole batch: one float64 copy of the
    images and one sort of them, the arithmetic the row blocks reproduce."""
    X = np.array(images, dtype=np.float64).reshape(len(images), r * r)
    if robust:
        d = X.shape[1]
        at = (d - 1) * 0.99
        lo, hi = math.floor(at), min(math.floor(at) + 1, d - 1)
        g = at - lo if lo < hi else 1.0
        sel = np.sort(images.reshape(len(images), d), axis=1)[
            :, [(d - 1) // 2, d // 2, lo, hi, d - 1]].astype(np.float64)
        m = sel[:, :2 - d % 2].mean(axis=1, keepdims=True)
        a, b = sel[:, 2:3], sel[:, 3:4]
        pct = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
        nan = np.isnan(sel[:, 4])
        if nan.any():
            m[nan] = np.median(X[nan], axis=1, keepdims=True)
        pct[nan] = np.nan
        scale = pct - m
        scale[scale < 1e-6] = 1.0
        X -= m
        X /= scale
        np.maximum(X, -0.5, out=X)
    return X


def _one_shot_fit_input(ds, robust):
    """_fit_input's statistics and features from whole-matrix numpy calls."""
    X = _one_shot_image_features(ds.pixels(), ds.r, robust)
    feat_mean = X.mean(axis=0)
    X -= feat_mean
    feat_std = np.maximum(np.sqrt(np.square(X).sum(axis=0) / len(X)), 1e-8)
    X /= feat_std
    return feat_mean, feat_std, X


@st.composite
def block_datasets(draw, n, r):
    """Datasets of n rows of r x r images, out of order in a larger buffer, with
    constant, NaN and inf rows mixed in."""
    spare = draw(st.integers(0, 3))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = pixels.random((n + spare, r, r), dtype=np.float32)
    for k in pixels.choice(n + spare, draw(st.integers(0, min(3, n + spare))), replace=False):
        images[k].flat[pixels.integers(r * r)] = draw(st.sampled_from([math.nan, math.inf]))
    if draw(st.booleans()):  # no spread: the robust scale floor
        images[pixels.integers(n + spare)] = 0.25
    rows = pixels.permutation(n + spare)[:n]
    zeros = np.zeros(n)
    return Dataset(images=images, rows=rows, insertion_id=zeros.astype(np.int64),
                   camera_index=zeros.astype(np.int64), y=zeros, truth_y=zeros, q_mm=zeros,
                   height_mm=zeros, cameras=())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, as in numpy's own pass
@pytest.mark.parametrize("r", [1, 2, 8, 64])
@pytest.mark.parametrize("n", [1, _FEATURE_ROWS - 1, _FEATURE_ROWS, _FEATURE_ROWS + 1,
                               3 * _FEATURE_ROWS + 5])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), robust=st.booleans())
def test_streamed_features_equal_the_one_shot_pass(n, r, data, robust):
    ds = data.draw(block_datasets(n, r))
    spec, X = _fit_input(ds, robust)
    assert spec.r == ds.r and spec.robust == robust
    feat_mean, feat_std, ref = _one_shot_fit_input(ds, robust)
    for got, want in ((spec.feat_mean, feat_mean), (spec.feat_std, feat_std), (X, ref)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    want = (_one_shot_image_features(ds.pixels(), ds.r, robust) - feat_mean) / feat_std
    assert featurize(ds.pixels(), spec).tobytes() == want.tobytes()
    assert featurize(ds.images, spec, ds.rows).tobytes() == want.tobytes()


@pytest.mark.parametrize("robust", [False, True])
def test_fit_input_holds_little_beside_its_feature_matrix(robust):
    # 800 rows of 64 x 64: no gathered images, sort buffer or np.square(X) the size of X
    ds = synthetic_dataset(8, 100, 64, lambda x, rng: 0.0)
    tracemalloc.start()
    try:
        X = _fit_input(ds, robust)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= X.nbytes + 4 * 2**20


@st.composite
def datasets(draw):
    r, n_cams = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n, spare = draw(st.integers(0, 12)), draw(st.integers(0, 3))
    # the views below share one buffer holding unused rows too
    images = draw(arrays(np.float32, (n + spare, r, r)))
    rows = np.array(draw(st.permutations(range(n + spare)))[:n], dtype=np.int64)
    ints = st.integers(0, 3)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    cams = tuple(CameraModel(position=vec3(10.0 * j, 0, 500.0),
                             orientation=np.diag([1.0, -1.0, -1.0]),
                             f=1000.0 + j, r=r, z=500.0) for j in range(n_cams))
    return Dataset(images=images, rows=rows,
                   insertion_id=draw(arrays(np.int64, n, elements=ints)),
                   camera_index=draw(arrays(np.int64, n,
                                            elements=st.integers(0, n_cams - 1))),
                   y=draw(arrays(np.float64, n, elements=finite)),
                   truth_y=draw(arrays(np.float64, n, elements=finite)),
                   q_mm=draw(arrays(np.float64, n, elements=finite)),
                   height_mm=draw(arrays(np.float64, n, elements=finite)),
                   cameras=cams)


@settings(max_examples=100, deadline=None)
@given(ds=datasets(), ids=st.sets(st.integers(0, 3)), cam=st.integers(0, 2))
def test_dataset_views_survive_save_and_load(ds, ids, cam):
    for view in (ds, ds.subset(ids), ds.by_camera(cam)):
        assert view.images is ds.images
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(view, tmp)
            back = load_dataset(tmp)
        assert len(back) == len(view) and back.r == view.r
        assert back.pixels().tobytes() == view.pixels().tobytes()
        for col in ("insertion_id", "camera_index", "y", "truth_y", "q_mm",
                    "height_mm"):
            a, b = getattr(view, col), getattr(back, col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col
        for ca, cb in zip(view.cameras, back.cameras, strict=True):
            assert np.array_equal(ca.position, cb.position) and ca.f == cb.f


def _reference_predict(model, obs):
    """predict as computed for one observation before it became a batch of one."""
    if model.kind == "oracle":
        y = obs.truth_y
        if model.noise_sigma > 0.0:  # one normal keyed by the observation's bytes
            key = hashlib.blake2b(obs.pixels.tobytes() + struct.pack("<d", y),
                                  digest_size=16)
            y += model.noise_sigma * np.random.default_rng(
                int(key.hexdigest(), 16)).standard_normal()
        return float(y)
    x = _reference_features(obs.pixels, model.spec)
    if model.kind == "ridge":
        return float(x @ model.weights + model.bias)
    return float(_mlp_layers(model.params, x[None, :])[-1][0])


def _random_model(kind, spec, draws):
    """An "oracle", "noisy" (oracle), "ridge" or "mlp" model of spec's images,
    its parameters drawn from the generator draws."""
    d = spec.r * spec.r
    if kind in ("oracle", "noisy"):
        return OracleModel(noise_sigma=float(draws.uniform(0.01, 1.0)) * (kind == "noisy"))
    if kind == "ridge":
        return RidgeModel(weights=draws.normal(size=d), bias=float(draws.normal()),
                          lam=1.0, spec=spec)
    hidden = (int(draws.integers(1, 9)), int(draws.integers(1, 9)))
    params = [draws.normal(size=s) for s in
              [(d, hidden[0]), hidden[0], hidden, hidden[1], (hidden[1], 1), 1]]
    return MlpModel(params=params, spec=spec, hidden=hidden)


_KINDS = st.sampled_from(["oracle", "noisy", "ridge", "mlp"])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=150, deadline=None)
@given(batch=image_batches(), kind=_KINDS, seed=st.integers(0, 2**32 - 1))
def test_predict_is_a_batch_of_one(batch, kind, seed):
    images, spec = batch
    draws = np.random.default_rng(seed)
    truth = draws.normal(size=len(images))
    model = _random_model(kind, spec, draws)
    ys = []
    for i in range(len(images)):
        obs = Observation(pixels=images[i], truth_y=float(truth[i]))
        y = predict(model, obs)
        assert repr(y) == repr(_reference_predict(model, obs))
        ys.append(y)
    # predict_views featurizes the batch at once and keeps each row's product
    assert np.array(ys).tobytes() == predict_views(model, images, truth).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=100, deadline=None)
@given(batch=image_batches(), kind=_KINDS, seed=st.integers(0, 2**32 - 1))
def test_a_saved_model_predicts_as_the_trained_one(batch, kind, seed):
    images, spec = batch
    draws = np.random.default_rng(seed)
    truth = draws.normal(size=len(images))
    model = _random_model(kind, spec, draws)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, tmp)
        back = load_model(tmp)
    assert back.kind == model.kind
    assert (predict_views(back, images, truth).tobytes()
            == predict_views(model, images, truth).tobytes())


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 24), r=st.one_of(st.integers(1, 16), st.integers(17, 64)),
       kind=st.sampled_from(["ridge", "mlp"]), robust=st.booleans(),
       hidden=st.lists(st.integers(1, 64), max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_the_product_is_each_rows_own(n, r, kind, robust, hidden, seed, data):
    # bitwise the per-row reference, and the same for a row in any batch
    draws = np.random.default_rng(seed)
    d = r * r
    spec = InputSpec(r=r, robust=robust, feat_mean=draws.normal(size=d),
                     feat_std=draws.uniform(0.5, 2.0, size=d))
    model = (RidgeModel(weights=draws.normal(size=d), bias=float(draws.normal()),
                        lam=1.0, spec=spec) if kind == "ridge" else
             MlpModel(params=[draws.normal(size=shape) for shape in _mlp_shapes(d, hidden)],
                      spec=spec, hidden=hidden))
    images = draws.random((n, r, r)).astype(np.float32)
    pred = predict_views(model, images, None)
    assert pred.shape == (n,)
    assert pred.tobytes() == predict_rows(model, featurize(images, spec)).tobytes()
    sel = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n)),
                   dtype=np.int64)
    assert predict_views(model, images[sel], None).tobytes() == pred[sel].tobytes()


_COLUMNS = ("insertion_id", "camera_index", "y", "truth_y", "q_mm", "height_mm")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # huge labels
@settings(max_examples=100, deadline=None)
@given(ds=datasets(), sigma=st.floats(1e-3, 10.0), data=st.data())
def test_noisy_oracle_prediction_is_a_function_of_its_observation(ds, sigma, data):
    # repeatable, and the same in any batch: reordered, subset or repeated rows
    model = OracleModel(noise_sigma=sigma)
    ys = [predict(model, observation(ds, i)) for i in range(len(ds))]
    assert ys == [predict(model, observation(ds, i)) for i in range(len(ds))]
    if len(ds) == 0:
        return
    sel = np.array(data.draw(st.lists(st.integers(0, len(ds) - 1), min_size=1)))
    batch = replace(ds, rows=ds.rows[sel], **{c: getattr(ds, c)[sel] for c in _COLUMNS})
    rows = predict_views(model, batch.pixels(), batch.truth_y)
    assert rows.tobytes() == np.array(ys)[sel].tobytes()
    mse = float(np.mean((np.array(ys)[sel] - batch.y) ** 2))
    assert repr(evaluate(model, batch)["mse"]) == repr(mse)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan pixels, huge labels
@settings(max_examples=100, deadline=None)
@given(ds=datasets(), kind=_KINDS, robust=st.booleans(), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_evaluate_scores_the_rows_as_predict_views_does(ds, kind, robust, seed, data):
    # evaluate of any subset, reordering or repetition of a dataset's rows is
    # the metrics of those rows' predictions made in the whole dataset's batch
    assume(len(ds) > 0)
    draws = np.random.default_rng(seed)
    d = ds.r * ds.r
    spec = InputSpec(r=ds.r, robust=robust, feat_mean=draws.normal(size=d),
                     feat_std=draws.uniform(0.5, 2.0, size=d))
    model = _random_model(kind, spec, draws)
    pred = predict_views(model, ds.pixels(), ds.truth_y)
    sel = np.array(data.draw(st.lists(st.integers(0, len(ds) - 1), min_size=1)))
    batch = replace(ds, rows=ds.rows[sel], **{c: getattr(ds, c)[sel] for c in _COLUMNS})
    assert repr(evaluate(model, batch)) == repr(_metrics(pred[sel], batch))
