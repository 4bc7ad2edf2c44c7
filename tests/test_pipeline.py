"""Autonomous collection, split, gating, and full insertion episodes."""

import math

import numpy as np
import pytest

import pegservo.perception
import pegservo.pipeline
import pegservo.servoing
import pegservo.sim
from conftest import RIDGE_HYPER, led_factory
from pegservo.errors import (AllInsertionsFailed, InvalidConfig, InvalidRadius,
                             ModelsNotDeployed, TooFewInsertions)
from pegservo.geometry import error_direction, normalize_error, vec3
from pegservo.perception import OracleModel, TrainConfig, evaluate
from pegservo.pipeline import (CollectionConfig, DeploymentGate,
                               collect_dataset, configure, insert,
                               insert_batch, split_by_insertion,
                               train_per_camera)
from pegservo.search import generate_pattern
from pegservo.servoing import servo_config_for, visual_servo
from pegservo.sim import (TimingModel, WorldConfig, Worlds, default_cameras,
                          move_tcp, new_world, render_views)

L = vec3(0.0, 0.0, -1.0)


def _quiet_factory(i):
    return new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                                 grasp_uncertainty_sigma=0.0, seed=500 + i))


# ---------------------------------------------------------------- collect


def test_collect_sample_budget(led_dataset):
    # 10 insertions x 100 samples x 2 cameras
    assert len(led_dataset) == 2000
    assert sorted(led_dataset.grouping) == list(range(10))
    assert np.all(np.abs(led_dataset.q_mm) <= 1.0 + 1e-12)
    assert np.all((0.0 <= led_dataset.height_mm)
                  & (led_dataset.height_mm <= 1.0 + 1e-12))


def test_collect_labels_match_convention_exactly():
    # zero-sigma worlds: the successful position IS the hole, so the stored
    # label equals the rendered ground-truth label bit-for-bit
    cfg = CollectionConfig(n_insertions=2, samples_per_insertion=20,
                           train_insertions=1)
    pattern = generate_pattern(0.1, cfg.max_offset_mag)
    data = collect_dataset(_quiet_factory, cfg, pattern)
    assert len(data) == 2 * 20 * 2
    for i in range(len(data)):
        assert data.y[i] == pytest.approx(data.truth_y[i], abs=1e-12)
        cam = data.cameras[data.camera_index[i]]
        assert data.y[i] == pytest.approx(normalize_error(data.q_mm[i], cam),
                                          abs=1e-15)


def test_collect_label_scale_with_uncertainty(led_dataset):
    # with sigma=0.01 draws the success position sits within eps of the
    # hole, so labels match rendered truth to the tolerance scale
    ds = led_dataset
    for i in range(0, len(ds), 97):
        bound = normalize_error(0.1, ds.cameras[ds.camera_index[i]]) + 1e-9
        assert abs(ds.y[i] - ds.truth_y[i]) <= bound


def test_collect_all_insertions_failed():
    def factory(i):
        return new_world(WorldConfig(tolerance=1e-6, hole_uncertainty_sigma=1.0,
                                     seed=900 + i))

    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=5,
                           train_insertions=2)
    with pytest.raises(AllInsertionsFailed):
        collect_dataset(factory, cfg, generate_pattern(1e-6, 0.0))


def test_configure_refuses_an_unreachable_collection_before_any_search(monkeypatch):
    # a million mm above the approach pose is behind both cameras: refused as
    # the CLI refuses it, before the spiral search that would run into it
    searched = []
    monkeypatch.setattr(pegservo.pipeline, "spiral_search", lambda *args: searched.append(args))
    with pytest.raises(InvalidConfig, match="^max_height 1000000.0 puts the highest "
                                            "collection pose behind a camera$"):
        configure(led_factory, CollectionConfig(max_height=1e6), RIDGE_HYPER)
    assert searched == []


def test_collection_config_n_insertions_is_an_integer():
    for bad in (3.5, "3", True, None):
        with pytest.raises(InvalidConfig, match="n_insertions must be an integer"):
            CollectionConfig(n_insertions=bad)
    assert type(CollectionConfig(n_insertions=np.int64(10)).n_insertions) is int


@pytest.mark.parametrize("name", ["samples_per_insertion", "train_insertions"])
def test_collection_config_integer_field_is_an_integer(name):
    for bad in (2.5, "3", True, None):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            CollectionConfig(**{name: bad})
    with pytest.raises(InvalidConfig, match=f"{name} must be >= 1, got 0"):
        CollectionConfig(**{name: 0})
    assert type(getattr(CollectionConfig(**{name: np.int64(3)}), name)) is int


def test_collection_config_validation():
    with pytest.raises(InvalidConfig):
        CollectionConfig(n_insertions=0)
    with pytest.raises(InvalidConfig):
        CollectionConfig(train_insertions=10, n_insertions=10)
    with pytest.raises(InvalidConfig):
        CollectionConfig(max_offset_mag=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidRadius):
            CollectionConfig(max_offset_mag=bad)
        with pytest.raises(InvalidConfig):
            CollectionConfig(max_height=bad)


def test_error_directions_are_computed_once_per_config(monkeypatch):
    # collection and servoing read each camera's error direction from their
    # config object; they do not recompute it per view
    calls = []

    def counted(l, view):
        calls.append(1)
        return error_direction(l, view)

    for module in (pegservo.sim, pegservo.pipeline, pegservo.servoing):
        monkeypatch.setattr(module, "error_direction", counted, raising=False)
    configs = []

    def factory(i):
        configs.append(WorldConfig(seed=700 + i))
        return new_world(configs[-1])

    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=5,
                           train_insertions=2)
    data = collect_dataset(factory, cfg, generate_pattern(0.1, 1.0))
    assert len(data) == 3 * 5 * 2
    assert 0 < len(calls) <= 2 * len(configs)

    calls.clear()
    world = factory(3)
    visual_servo(world, servo_config_for(world, (OracleModel(), OracleModel())))
    assert len(calls) == 2  # the servo reads the world's config, one per camera


def test_collection_renders_each_insertion_once(monkeypatch):
    calls = []

    def counted(worlds, tcps):
        calls.append((worlds.seed.tolist(), len(tcps)))
        return render_views(worlds, tcps)

    monkeypatch.setattr(pegservo.pipeline, "render_views", counted)
    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=5,
                           train_insertions=2)
    data = collect_dataset(_quiet_factory, cfg, generate_pattern(0.1, 1.0))
    assert len(data) == 3 * 5 * 2
    # one scene of both cameras per sample, every insertion's in one call
    assert calls == [([500] * 5 + [501] * 5 + [502] * 5, 15)]


def test_collection_builds_each_world_once():
    built = []

    def factory(i):
        built.append(i)
        return _quiet_factory(i)

    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=2,
                           train_insertions=2)
    assert len(collect_dataset(factory, cfg, generate_pattern(0.1, 1.0))) == 3 * 2 * 2
    assert built == [0, 1, 2]


def test_collection_rejects_worlds_with_other_cameras():
    def factory(f):
        def make(i):
            cams = default_cameras(vec3(0.0, 0.0, 0.0), L, f=f[min(i, len(f) - 1)])
            return new_world(WorldConfig(seed=500 + i, cameras=cams))
        return make

    cfg = CollectionConfig(n_insertions=2, samples_per_insertion=3,
                           train_insertions=1)
    pattern = generate_pattern(0.1, 1.0)
    work = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("render_views", "spiral_search"):
            mp.setattr(pegservo.pipeline, name, lambda *a, name=name: work.append(name))
        with pytest.raises(InvalidConfig, match="^world 1's config differs from world 0's"):
            collect_dataset(factory([1000.0, 2000.0]), cfg, pattern)
    assert work == []  # every world is checked before any insertion or render
    # equal cameras built by separate configs are one calibration
    assert len(collect_dataset(factory([2000.0]), cfg, pattern)) == 2 * 3 * 2


def test_collection_searches_once_and_keeps_only_inserted_samples(monkeypatch):
    searches = []

    def counted(worlds, pattern, timing):
        searches.append(worlds.seed.tolist())
        return pegservo.sim.spiral_search(worlds, pattern, timing)

    monkeypatch.setattr(pegservo.pipeline, "spiral_search", counted)

    def factory(i):
        # a hole moved 10 mm is far outside the 1 mm pattern: insertion 1 fails
        world = new_world(WorldConfig(seed=500 + i))
        if i == 1:
            world.true_hole = world.true_hole + 10.0 * world.basis[:, 0]
        return world

    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=4,
                           train_insertions=1)
    data = collect_dataset(factory, cfg, generate_pattern(0.1, 1.0))
    assert searches == [[500, 501, 502]]
    assert data.grouping == [0, 2]
    assert len(data.images) == len(data) == 2 * 4 * 2


@pytest.mark.parametrize("hyper", [RIDGE_HYPER, TrainConfig(
    kind="mlp", hidden=(3,), max_epochs=2, robust_norm=True)], ids=["ridge", "mlp"])
def test_train_per_camera_featurizes_once_and_scores_like_evaluate(monkeypatch,
                                                                   hyper):
    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=5,
                           train_insertions=2)
    data = collect_dataset(_quiet_factory, cfg, generate_pattern(0.1, 1.0))
    rows, features = [], pegservo.perception._image_features

    def counted(images, r, robust, take=None):
        rows.append(len(images) if take is None else len(take))
        return features(images, r, robust, take)

    monkeypatch.setattr(pegservo.perception, "_image_features", counted)
    res = train_per_camera(data, cfg.train_insertions, hyper)
    # per camera: its 2 x 5 training rows, then its 5 validation rows
    assert rows == [10, 5, 10, 5]
    monkeypatch.undo()
    val = split_by_insertion(data, cfg.train_insertions, hyper.seed)[1]
    for j, model in res.models.items():
        assert repr(res.metrics[j]) == repr(evaluate(model, val.by_camera(j)))


# ---------------------------------------------------------------- split


def test_split_sizes_and_disjoint(led_dataset):
    tr, va = split_by_insertion(led_dataset, 8, seed=0)
    assert len(tr) == 1600 and len(va) == 400
    assert set(tr.grouping).isdisjoint(va.grouping)
    assert set(tr.grouping) | set(va.grouping) == set(range(10))


def test_split_deterministic(led_dataset):
    a = split_by_insertion(led_dataset, 8, seed=0)
    b = split_by_insertion(led_dataset, 8, seed=0)
    assert sorted(a[0].grouping) == sorted(b[0].grouping)
    c = split_by_insertion(led_dataset, 8, seed=1)
    # a different seed reshuffles with overwhelming probability
    assert sorted(a[1].grouping) != sorted(c[1].grouping)


def test_split_too_few_insertions(led_dataset):
    with pytest.raises(TooFewInsertions):
        split_by_insertion(led_dataset, 10, seed=0)
    with pytest.raises(TooFewInsertions):
        split_by_insertion(led_dataset, 11, seed=0)


# ---------------------------------------------------------------- configure


def test_configure_defaults_reach_deploy():
    res = configure(led_factory, CollectionConfig(), RIDGE_HYPER)
    assert res.gate == DeploymentGate(max_val_mae_mm=0.05)  # half of 0.1 mm
    assert res.decision == "deploy"
    assert res.dataset_size == 2000
    assert sorted(res.models) == [0, 1]
    for j, m in res.metrics.items():
        assert m["mae_mm"] <= 0.05, (j, m)


def test_configure_zero_gate_collects_more():
    res = configure(led_factory, CollectionConfig(), RIDGE_HYPER,
                    DeploymentGate(max_val_mae_mm=0.0))
    assert res.decision == "collect_more"


def test_configure_invisible_peg_collects_more():
    def factory(i):
        return new_world(WorldConfig(component_style="led", seed=1000 + i,
                                     peg_intensity=None))

    res = configure(factory, CollectionConfig(), RIDGE_HYPER,
                    DeploymentGate(max_val_mae_mm=0.05))
    assert res.decision == "collect_more"
    # without the peg in view the regressor cannot beat the prior scale
    assert min(m["mae_mm"] for m in res.metrics.values()) > 0.05


def test_configure_builds_each_world_once():
    built = []

    def factory(i):
        built.append(i)
        return _quiet_factory(i)

    cfg = CollectionConfig(n_insertions=4, samples_per_insertion=5,
                           train_insertions=3)
    res = configure(factory, cfg, RIDGE_HYPER)
    assert built == [0, 1, 2, 3]
    # world 0, built first for its tolerance, is collected from unchanged
    data = collect_dataset(_quiet_factory, cfg, generate_pattern(0.1, cfg.max_offset_mag))
    assert res.metrics == train_per_camera(data, 3, RIDGE_HYPER).metrics


# ---------------------------------------------------------------- insert


def test_insert_servo_then_spiral_exact_time():
    w = new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                              grasp_uncertainty_sigma=0.0, seed=0))
    move_tcp(w, w.tcp + w.basis @ np.array([0.8, -0.6]))  # 1 mm off
    cfg = servo_config_for(w, (OracleModel(), OracleModel()))
    pattern = generate_pattern(0.1, 1.0)
    out = insert(w, "servo_then_spiral", cfg, pattern, TimingModel())
    assert out.success and out.attempts == 1
    # 1.299 s servo + 0.25 s single attempt
    assert out.time_s == pytest.approx(1.549, abs=1e-9)
    assert out.retrospective_error_mm == pytest.approx(1.0, abs=1e-9)
    assert out.post_servo_retrospective_error_mm <= 1e-9


def test_insert_runs_a_noisy_oracle():
    # each view keys its own noise, so the episode is the same alone or in a batch
    models = (OracleModel(noise_sigma=0.01), OracleModel(noise_sigma=0.01))
    pattern, timing = generate_pattern(0.1, 1.0), TimingModel()

    def off_world(seed):
        w = new_world(WorldConfig(seed=seed))
        move_tcp(w, w.tcp + w.basis @ np.array([0.8, -0.6]))
        return w

    w = off_world(3)
    out = insert(w, "servo_then_spiral", servo_config_for(w, models), pattern, timing)
    assert out.mode == "vs" and out.success
    assert out.post_servo_retrospective_error_mm > 0.1  # the noise reached the servo
    ws = Worlds.join([off_world(s) for s in (5, 3)])
    batch = insert_batch(ws, servo_config_for(ws, models), [True, True], pattern, timing)
    assert repr(batch[1]) == repr(out)


def test_insert_spiral_only_time_scale():
    # ~30 s mean at 1 mm error disc, eps = 0.1 (about 120 attempts)
    pattern = generate_pattern(0.1, 1.0)
    timing = TimingModel()
    times = []
    rng = np.random.default_rng(4)
    for seed in range(50):
        w = new_world(WorldConfig(seed=60_000 + seed))
        theta = rng.uniform(0, 2 * np.pi)
        rad = math.sqrt(rng.uniform())
        move_tcp(w, w.tcp + w.basis @ (rad * np.array([math.cos(theta),
                                                       math.sin(theta)])))
        out = insert(w, "spiral_only", None, pattern, timing)
        assert out.success
        times.append(out.time_s)
    assert abs(np.mean(times) - 30.0) <= 15.0


def test_insert_rejects_bad_mode_and_missing_models():
    w = new_world(WorldConfig(seed=1))
    pattern = generate_pattern(0.1, 1.0)
    with pytest.raises(InvalidConfig):
        insert(w, "teleport", None, pattern, TimingModel())
    with pytest.raises(ModelsNotDeployed):
        insert(w, "servo_then_spiral", None, pattern, TimingModel())
    with pytest.raises(ModelsNotDeployed):  # a ServoConfig holds every camera's model
        servo_config_for(w, (OracleModel(), None))
