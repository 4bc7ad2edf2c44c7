"""Error regressors: datasets, training, evaluation, serialization.

A regressor maps one camera image to the normalized in-plane error y along
that camera's error direction. Three kinds are supported: "oracle" (reads
the renderer ground truth, optionally noised), "ridge" (linear model on
normalized pixels, closed form), and "mlp" (small fully connected net
trained with Adam). Datasets are grouped by insertion so train/val splits
never share a hidden world.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .errors import (CorruptArtifact, EmptyDataset, InvalidConfig,
                     LeakedInsertion, NonFiniteLoss, ShapeMismatch,
                     read_artifact, write_artifacts)
from .geometry import CameraModel
from .sim import Observation, check_int, config_to_dict
from .streams import keyed_generators

SCHEMA_VERSION = 2

# Per-sample label columns of a Dataset (also meta.json's columns)
_LABELS = {"insertion_id": np.int64, "camera_index": np.int64, "y": np.float64,
           "truth_y": np.float64, "q_mm": np.float64, "height_mm": np.float64}


@dataclass
class Dataset:
    """Labeled samples from a collection run, stored as columns.

    Sample i's image is images[rows[i]]; the (N, r, r) float32 buffer is
    shared by every view, so subset and by_camera copy only rows and the
    label columns. y is the training label (normalized error the servo
    should apply), truth_y the renderer's ground truth for the same image,
    q_mm the label's millimeter equivalent, and height_mm the capture
    height above the reference pose.
    """

    images: np.ndarray  # (N, r, r) float32, shared between views
    rows: np.ndarray  # (n,) int
    insertion_id: np.ndarray  # (n,) int
    camera_index: np.ndarray  # (n,) int
    y: np.ndarray  # (n,) float64
    truth_y: np.ndarray
    q_mm: np.ndarray
    height_mm: np.ndarray
    cameras: tuple

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def r(self) -> int:
        return self.images.shape[-1]

    @property
    def grouping(self) -> list:
        """The distinct insertion ids, ascending."""
        return np.unique(self.insertion_id).tolist()

    def pixels(self) -> np.ndarray:
        """The samples' (n, r, r) images, in sample order (a copy)."""
        return self.images[self.rows]

    def _where(self, mask) -> "Dataset":
        return replace(self, rows=self.rows[mask],
                       **{k: getattr(self, k)[mask] for k in _LABELS})

    def subset(self, insertion_ids) -> "Dataset":
        return self._where(np.isin(self.insertion_id, list(insertion_ids)))

    def by_camera(self, camera_index: int) -> "Dataset":
        return self._where(self.camera_index == camera_index)


@dataclass(frozen=True)
class InputSpec:
    """Feature pipeline parameters frozen at training time.

    robust=True first normalizes each image by its own median and upper
    percentile spread (cancels per-scene background and contrast), then
    applies the stored per-dataset feature standardization.
    """

    r: int
    robust: bool
    feat_mean: np.ndarray
    feat_std: np.ndarray


_ROBUST_PCTL = 99.0
_ROBUST_FLOOR = -0.5
_FEATURE_ROWS = 64  # rows per feature block: 2 MB of float64 at 64 x 64


def featurize(images, spec: InputSpec, rows=None) -> np.ndarray:
    """(n, r, r) images -> (n, r*r) float64 features, one row per image (of images[rows]).

    Every step works on each row alone, so a row's features do not depend
    on the other images in the batch.
    """
    X = _image_features(images, spec.r, spec.robust, rows)
    X -= spec.feat_mean
    X /= spec.feat_std
    return X


def _image_features(images, r: int, robust: bool, rows=None) -> np.ndarray:
    """featurize before the per-dataset standardization, _FEATURE_ROWS rows at a time."""
    images = np.asarray(images)
    if images.ndim != 3 or images.shape[1:] != (r, r):
        raise ShapeMismatch(f"expected (n, {r}, {r}) images, got {images.shape}")
    X = np.empty((len(images) if rows is None else len(rows), r * r))
    for i in range(0, len(X), _FEATURE_ROWS):
        block = slice(i, i + _FEATURE_ROWS)
        _block_features(images[block] if rows is None else images[rows[block]], X[block], robust)
    return X


def _block_features(images, X, robust: bool) -> None:
    """Write the features of k (r, r) images into X's k rows."""
    X[...] = images.reshape(X.shape)
    if robust:
        # Zero the background at the median and scale by the bright tail so
        # the foreground amplitude is scene-independent; then floor the dark
        # tail, whose contrast against the background varies oppositely and
        # would otherwise leak a per-scene gain into a linear readout. Both
        # order statistics come from one sort per row in the input's dtype
        # (faster than a partition at several ranks) and an exact cast, then
        # numpy's own arithmetic: numpy's bits. NaN sorts last, makes both NaN.
        d = X.shape[1]
        at = (d - 1) * (_ROBUST_PCTL / 100)
        lo, hi = math.floor(at), min(math.floor(at) + 1, d - 1)
        g = at - lo if lo < hi else 1.0
        sel = np.sort(images.reshape(X.shape), axis=1)[
            :, [(d - 1) // 2, d // 2, lo, hi, d - 1]].astype(np.float64)
        m = sel[:, :2 - d % 2].mean(axis=1, keepdims=True)  # 1 or 2 middle ranks
        a, b = sel[:, 2:3], sel[:, 3:4]
        pct = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
        nan = np.isnan(sel[:, 4])
        if nan.any():  # the sort makes every NaN canonical; np.median keeps the row's
            m[nan] = np.median(X[nan], axis=1, keepdims=True)
        pct[nan] = np.nan
        scale = pct - m
        scale[scale < 1e-6] = 1.0
        X -= m
        X /= scale
        np.maximum(X, _ROBUST_FLOOR, out=X)


def _fit_input(ds: Dataset, robust: bool):
    """The input spec that standardizes ds's features, and those features."""
    X = _image_features(ds.images, ds.r, robust, ds.rows)
    feat_mean = X.mean(axis=0)
    X -= feat_mean  # then X.std's own arithmetic, with no copy of X or of np.square(X):
    sq = np.zeros((_FEATURE_ROWS + 1, X.shape[1]))  # row 0 carries the sum of squares
    for x in np.split(X, range(_FEATURE_ROWS, len(X), _FEATURE_ROWS)):
        np.square(x, out=sq[1:len(x) + 1])  # numpy adds a matrix's rows in order, so
        sq[0] = sq[:len(x) + 1].sum(axis=0)  # a running sum over row blocks keeps its bits
    ss = sq[0] if X.shape[1] > 1 else np.square(X).sum(axis=0)  # a lone column numpy sums pairwise
    feat_std = np.maximum(np.sqrt(ss / len(X)), 1e-8)
    X /= feat_std
    return InputSpec(r=ds.r, robust=robust, feat_mean=feat_mean, feat_std=feat_std), X


@dataclass
class OracleModel:
    """Reads the renderer's ground truth; noise_sigma adds prediction noise."""

    noise_sigma: float = 0.0
    kind: str = field(default="oracle", init=False)


@dataclass
class RidgeModel:
    weights: np.ndarray
    bias: float
    lam: float
    spec: InputSpec
    kind: str = field(default="ridge", init=False)


@dataclass
class MlpModel:
    params: list  # [W1, b1, W2, b2, W3, b3]
    spec: InputSpec
    hidden: tuple
    kind: str = field(default="mlp", init=False)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train().

    For kind="ridge", training sweeps a descending regularization path and
    the patience/early-stop machinery runs over that path. robust_norm
    switches the per-image normalization of InputSpec on.
    """

    kind: str = "ridge"
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 20
    hidden: tuple = (128, 128)
    robust_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("ridge", "mlp"):
            raise InvalidConfig(f"train kind must be ridge or mlp, got {self.kind!r}")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        if not self.learning_rate > 0:
            raise InvalidConfig("learning_rate must be > 0")
        if not all(type(h) is int and h >= 1 for h in self.hidden):
            raise InvalidConfig(f"hidden sizes must be ints >= 1, got {self.hidden!r}")


@dataclass
class TrainReport:
    epochs_run: int
    best_val_loss: float
    val_curve: list
    stopped_early: bool
    val_metrics: dict  # evaluate()'s metrics of the returned model on val_ds


def train(train_ds: Dataset, val_ds: Dataset, hyper: TrainConfig):
    """Fit a regressor; returns (model, TrainReport).

    The kind's steps (a ridge lambda, an MLP epoch) run until the
    validation loss has not improved for hyper.patience steps. The returned
    model carries the parameters that achieved best_val_loss, not the
    last-step parameters; the report's val_metrics equal evaluate(model,
    val_ds). Raises NonFiniteLoss when no step's validation loss is finite.
    The validation features are built once, when the steps first ask for
    them (ridge: after its eigh, so they are not resident beside LAPACK's
    workspace at the memory peak), and val_metrics reuses them.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise EmptyDataset("train and validation sets must be non-empty")
    shared = set(train_ds.grouping) & set(val_ds.grouping)
    if shared:
        raise LeakedInsertion(f"insertions in both splits: {sorted(shared)}")
    if val_ds.images.shape[1:] != train_ds.images.shape[1:]:  # fail before the solve
        raise ShapeMismatch(f"validation images {val_ds.images.shape[1:]} differ from "
                            f"training images {train_ds.images.shape[1:]}")
    spec, Xtr = _fit_input(train_ds, hyper.robust_norm)
    val_features = cache(partial(featurize, val_ds.images, spec, val_ds.rows))
    steps = _train_ridge if hyper.kind == "ridge" else _train_mlp
    # each step yields (a builder of its model, validation mse)
    val_curve = []
    best, best_val, wait = None, np.inf, 0
    for candidate, va_mse in steps(Xtr, train_ds.y, val_features, val_ds.y, spec, hyper):
        val_curve.append(va_mse)
        if va_mse < best_val:
            best, best_val, wait = candidate, va_mse, 0
        else:
            wait += 1
            if wait >= hyper.patience:
                break
    if best is None:
        raise NonFiniteLoss(f"no {hyper.kind} step reached a finite validation "
                            f"loss (first {val_curve[0]}): NaN or inf in the data?")
    model = best()
    return model, TrainReport(
        epochs_run=len(val_curve), best_val_loss=best_val, val_curve=val_curve,
        stopped_early=wait >= hyper.patience,
        val_metrics=_metrics(_predict_features(model, val_features()), val_ds))


def _train_ridge(Xtr, ytr, val_features, yva, spec, hyper: TrainConfig):
    """train's steps for kind=ridge: one per lambda, from 1e2 down to 1e-8. Its
    validation features are built after eigh, never beside LAPACK's workspace."""
    # Dual (kernel) form: w = Xc^T (Xc Xc^T + lam I)^-1 yc. One
    # eigendecomposition of the Gram matrix serves the whole lambda path.
    xm = Xtr.mean(axis=0)
    ym = float(ytr.mean())
    Xc = np.subtract(Xtr, xm, out=Xtr)  # train's own array: centred in place
    evals, V = np.linalg.eigh(Xc @ Xc.T)
    evals = np.maximum(evals, 0.0)
    Vty = V.T @ (ytr - ym)
    Kva = (val_features() - xm) @ Xc.T

    def model(lam, alpha):
        w = Xc.T @ alpha
        return RidgeModel(weights=w, bias=ym - float(xm @ w), lam=float(lam), spec=spec)

    for lam in np.logspace(2.0, -8.0, 26)[:hyper.max_epochs]:
        alpha = V @ (Vty / (evals + lam))
        yield partial(model, lam, alpha), float(np.mean((Kva @ alpha + ym - yva) ** 2))


def _mlp_shapes(d: int, hidden) -> list:
    """The shapes of an MLP's parameters in order: W1, b1, W2, b2, ..."""
    sizes = [d, *hidden, 1]
    return [shape for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for shape in ((fan_in, fan_out), (fan_out,))]


def _mlp_init(d: int, hyper: TrainConfig):
    """An MLP run's initial parameters and the seeded stream that drew them."""
    [rng] = keyed_generators([[hyper.seed, 2]])
    return [np.zeros(shape) if len(shape) == 1  # a bias
            else rng.standard_normal(shape) * np.sqrt(2.0 / shape[0])  # He init
            for shape in _mlp_shapes(d, hyper.hidden)], rng


def _mlp_layers(params: list, X: np.ndarray) -> list:
    """The MLP's activations of X, input first; the last is the (n,) output."""
    acts = [X]
    for W, b in zip(params[0:-2:2], params[1:-2:2]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return [*acts, (acts[-1] @ params[-2] + params[-1]).ravel()]


def _mlp_loss_grads(params: list, X: np.ndarray, y: np.ndarray):
    *acts, pred = _mlp_layers(params, X)
    resid = pred - y
    loss = float(np.mean(resid ** 2))
    n = len(y)
    grads = [None] * len(params)
    delta = (2.0 / n) * resid[:, None]
    grads[-2] = acts[-1].T @ delta
    grads[-1] = delta.sum(axis=0)
    back = delta @ params[-2].T
    for li in range(len(acts) - 2, -1, -1):
        back = back * (acts[li + 1] > 0.0)
        grads[2 * li] = acts[li].T @ back
        grads[2 * li + 1] = back.sum(axis=0)
        if li > 0:
            back = back @ params[2 * li].T
    return loss, pred, grads


def _train_mlp(Xtr, ytr, val_features, yva, spec, hyper: TrainConfig):
    """train's steps for kind=mlp: one per epoch of minibatch Adam."""
    Xva = val_features()
    params, rng = _mlp_init(Xtr.shape[1], hyper)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    n = len(ytr)
    for _epoch in range(hyper.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            _, _, grads = _mlp_loss_grads(params, Xtr[idx], ytr[idx])
            t += 1
            for k, g in enumerate(grads):
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                mhat = m[k] / (1 - b1 ** t)
                vhat = v[k] / (1 - b2 ** t)
                params[k] = params[k] - hyper.learning_rate * mhat / (np.sqrt(vhat) + eps)
        # every step rebinds params[k], so a shallow copy keeps this epoch's
        yield (partial(MlpModel, list(params), spec, tuple(hyper.hidden)),
               float(np.mean((_mlp_layers(params, Xva)[-1] - yva) ** 2)))


def predict(model, obs: Observation) -> float:
    """Predict the normalized error y for one observation: predict_views of one."""
    return float(predict_views(model, np.asarray(obs.pixels)[None], np.array([obs.truth_y]))[0])


def predict_views(model, images, truth_y) -> np.ndarray:
    """What predict makes of each of (n, r, r) images alone: one featurize, then
    each row's own product; an oracle reads truth_y instead."""
    if model.kind == "oracle":
        if model.noise_sigma > 0.0:
            return truth_y + model.noise_sigma * _keyed_normals(images, truth_y)
        return truth_y
    return _predict_features(model, featurize(images, model.spec))


def _keyed_normals(images, truth_y) -> np.ndarray:
    """A standard normal per view, keyed by blake2b-128 of its pixel and truth_y bytes."""
    import hashlib  # here, not at import: only a noisy oracle hashes, and it loads OpenSSL
    keys = [[int(hashlib.blake2b(img.tobytes() + np.float64(t).tobytes(),
                                 digest_size=16).hexdigest(), 16)]
            for img, t in zip(images, truth_y)]
    return np.array([rng.standard_normal() for rng in keyed_generators(keys)])


def _predict_features(model, X) -> np.ndarray:
    """Each feature row's own ridge or MLP product: numpy hands each (1, d) row
    of X[:, None] to the BLAS call the row gets alone, whatever its batch."""
    rows = X[:, None]
    if model.kind == "ridge":
        return (rows @ model.weights)[:, 0] + model.bias
    return _mlp_layers(model.params, rows)[-1]


def evaluate(model, ds: Dataset) -> dict:
    """Metrics of predict_views' predictions over a dataset, the numbers the
    servo loop acts on: mse/mae in y units, mae_mm in mm."""
    if len(ds) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    return _metrics(predict_views(model, ds.pixels(), ds.truth_y) if model.kind == "oracle"
                    else _predict_features(model, featurize(ds.images, model.spec, ds.rows)), ds)


def _metrics(pred, ds: Dataset) -> dict:
    """evaluate's metrics of the predictions pred for ds's samples."""
    err = pred - ds.y
    scale = np.array([cam.r * cam.z / cam.f for cam in ds.cameras])[ds.camera_index]
    return {"mse": float(np.mean(err ** 2)),
            "mae": float(np.mean(np.abs(err))),
            "mae_mm": float(np.mean(np.abs(err) * scale)),
            "n": len(ds)}


def save_dataset(ds: Dataset, out_dir) -> None:
    """Write meta.json (a list per label) plus images.bin (float32 LE, sample order)."""
    meta = {
        "schema_version": SCHEMA_VERSION,
        "r": ds.r,
        "n": len(ds),
        "cameras": [config_to_dict(c) for c in ds.cameras],
        "columns": {k: getattr(ds, k).tolist() for k in _LABELS},
    }
    write_artifacts(out_dir, {
        "meta.json": json.dumps(meta, indent=1, sort_keys=True),
        "images.bin": ds.pixels().astype("<f4", copy=False)})


def _read_meta(path) -> dict:
    """A meta.json or model.json of this schema version, parsed."""
    try:
        meta = json.loads(read_artifact(path))
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    if version != SCHEMA_VERSION:
        raise CorruptArtifact(f"{path}: schema_version {version!r}, "
                              f"expected {SCHEMA_VERSION}")
    return meta


def load_dataset(in_dir) -> Dataset:
    meta = _read_meta(os.path.join(in_dir, "meta.json"))
    raw = read_artifact(os.path.join(in_dir, "images.bin"), binary=True)
    try:
        r, n = check_int("r", meta["r"], 1), check_int("n", meta["n"], 0)
        cams = tuple(CameraModel(**cd) for cd in meta["cameras"])
        labels = {k: np.array(meta["columns"][k], dtype=dtype)
                  for k, dtype in _LABELS.items()}
        if any(cam.r != r for cam in cams):
            raise InvalidConfig(f"r must be every camera's r, got {r} and {[c.r for c in cams]}")
        if not ((labels["camera_index"] >= 0) & (labels["camera_index"] < len(cams))).all():
            raise InvalidConfig(f"camera_index must lie in [0, {len(cams)})")
    except (KeyError, TypeError, ValueError, OverflowError, InvalidConfig) as exc:
        raise CorruptArtifact(f"bad meta.json in {in_dir}: {exc!r}") from exc
    short = [k for k, column in labels.items() if column.shape != (n,)]
    if short or len(raw) != 4 * n * r * r:
        raise CorruptArtifact(f"meta.json's n={n}, r={r} disagree with images.bin's "
                              f"{len(raw)} bytes (float32) or the columns {short}")
    images = np.frombuffer(raw, dtype="<f4").reshape(n, r, r)
    return Dataset(images=images, rows=np.arange(n), cameras=cams, **labels)


def save_model(model, out_dir) -> None:
    """Write model.json plus weights.bin (float64 LE, order documented here).

    ridge: [feat_mean, feat_std, weights, bias]. mlp: [feat_mean, feat_std,
    W1, b1, W2, b2, W3, b3] with matrices flattened row-major. oracle models
    have no weights.bin.
    """
    meta = {"schema_version": SCHEMA_VERSION, "kind": model.kind}
    blobs = []
    if model.kind == "oracle":
        meta["noise_sigma"] = model.noise_sigma
    else:
        meta["r"] = model.spec.r
        meta["robust"] = bool(model.spec.robust)
        blobs = [model.spec.feat_mean, model.spec.feat_std]
        if model.kind == "ridge":
            meta["lam"] = model.lam
            blobs += [model.weights, np.array([model.bias])]
        else:
            meta["hidden"] = list(model.hidden)
            blobs += [p.ravel() for p in model.params]
    files = {"model.json": json.dumps(meta, indent=1, sort_keys=True)}
    if blobs:
        files["weights.bin"] = np.concatenate([np.asarray(b, "<f8").ravel() for b in blobs])
    write_artifacts(out_dir, files)


def load_model(in_dir):
    meta = _read_meta(os.path.join(in_dir, "model.json"))
    try:
        return _model_from_meta(meta, in_dir)
    except (KeyError, TypeError, ValueError, InvalidConfig) as exc:
        raise CorruptArtifact(f"bad model.json in {in_dir}: {exc!r}") from exc


def _model_from_meta(meta: dict, in_dir):
    kind = meta["kind"]
    if kind == "oracle":
        sigma = meta["noise_sigma"]  # a nan or a negative sigma would turn the noise off
        if type(sigma) not in (int, float) or not 0 <= sigma < math.inf:
            raise InvalidConfig(f"noise_sigma must be a finite JSON number >= 0, got {sigma!r}")
        return OracleModel(noise_sigma=float(sigma))
    raw = np.frombuffer(read_artifact(os.path.join(in_dir, "weights.bin"),
                                      binary=True), dtype="<f8")
    r, robust = check_int("r", meta["r"], 1), meta["robust"]
    if type(robust) is not bool:
        raise InvalidConfig(f"robust must be a JSON bool, got {robust!r}")
    d = r * r
    if raw.size < 2 * d:
        raise CorruptArtifact("weights.bin too short for feature statistics")
    feat_mean, feat_std, rest = raw[:d], raw[d:2 * d], raw[2 * d:]
    spec = InputSpec(r=r, robust=robust, feat_mean=feat_mean, feat_std=feat_std)
    if kind == "ridge":
        if type(meta["lam"]) not in (int, float):
            raise InvalidConfig(f"lam must be a JSON number, got {meta['lam']!r}")
        if rest.size != d + 1:
            raise CorruptArtifact("ridge weights.bin has wrong length")
        return RidgeModel(weights=rest[:d], bias=float(rest[d]),
                          lam=float(meta["lam"]), spec=spec)
    if kind == "mlp":
        hidden = tuple(check_int("hidden", h, 1) for h in meta["hidden"])
        shapes = _mlp_shapes(d, hidden)
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        if ends[-1] != rest.size:
            raise CorruptArtifact("mlp weights.bin has wrong length")
        params = [p.reshape(shape) for p, shape in zip(np.split(rest, ends[:-1]), shapes)]
        return MlpModel(params=params, spec=spec, hidden=hidden)
    raise InvalidConfig(f"unknown model kind {kind!r}")
