"""Benchmark grid, quadratic-law fit, and report emission."""

import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegservo import bench, pipeline, servoing
from pegservo.bench import (BenchConfig, RunConfig, build_report, emit_report,
                            fit_quadratic_law, read_rows, run_benchmark, train_styles)
from pegservo.cli import main
from pegservo.errors import (CorruptArtifact, InsufficientData, InvalidConfig,
                             InvalidTolerance, ModelsNotDeployed)
from pegservo.perception import OracleModel, TrainConfig
from pegservo.pipeline import CollectionConfig, DeploymentGate, configure
from pegservo.search import generate_pattern
from pegservo.servoing import CLAMP_MM, ServoConfig
from pegservo.sim import (BENCH_MODES, COMPONENT_STYLES, Episode, Episodes, TimingModel,
                          WorldConfig, config_to_dict, move_tcp, new_world, new_worlds,
                          spiral_insert, spiral_search)

ORACLE_MODELS = {s: (OracleModel(), OracleModel())
                 for s in ("pin_header", "led", "cap_small", "dsub", "cap_large")}


def _small_cfg(**kw):
    base = dict(component_styles=("led", "dsub"),
                insertions_per_style_per_mode=3, seed=5)
    base.update(kw)
    return BenchConfig(**base)


def test_default_config_row_budget():
    cfg = BenchConfig()
    n = (len(cfg.component_styles) * cfg.insertions_per_style_per_mode
         * len(cfg.modes))
    assert n == 100


def test_run_benchmark_rows_and_pairing():
    rep = run_benchmark(_small_cfg(), ORACLE_MODELS)
    assert len(rep.rows) == 2 * 3 * 2
    by_key = {}
    for r in rep.rows:
        by_key.setdefault((r.style, r.seed), []).append(r.mode)
    # each (style, world seed) appears once per mode: paired episodes
    assert len(by_key) == 2 * 3
    assert all(sorted(modes) == ["novs", "vs"] for modes in by_key.values())
    # paired episodes start from the same error, bit for bit
    true_err = {}
    for r in rep.rows:
        true_err.setdefault((r.style, r.seed), set()).add(r.true_error_mm.hex())
    assert all(len(v) == 1 for v in true_err.values())
    for r in rep.rows:
        assert type(r) is Episode
        assert r.direct == (r.success and r.attempts == 1)
        if r.mode == "vs":
            assert r.success and r.attempts == 1
            assert r.time_s == pytest.approx(1.549, abs=1e-9)
            assert r.post_servo_retrospective_error_mm <= 1e-9


def test_benchmark_is_deterministic_across_jobs():
    cfg = _small_cfg()
    a = run_benchmark(cfg, ORACLE_MODELS).rows
    b = run_benchmark(cfg, ORACLE_MODELS, jobs=3).rows
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        for f in fields(ra):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb, f.name


def test_grid_rows_are_the_episodes_of_numpys_per_row_streams():
    # the grid seeds every row's world and start error for the whole grid at
    # once; each row is still the episode its own numpy streams give
    cfg = _small_cfg(modes=("novs",), insertions_per_style_per_mode=20, error_disc_radius=2.0)
    pattern = generate_pattern(cfg.tolerance, cfg.error_disc_radius)
    rows = iter(run_benchmark(cfg, {}).rows)
    for si, style in enumerate(cfg.component_styles):
        for i in range(cfg.insertions_per_style_per_mode):
            seed = np.random.SeedSequence([cfg.seed, si, i]).generate_state(1, np.uint64)[0]
            world = new_world(replace(cfg.world_template, component_style=style,
                                      seed=int(seed >> 1)))
            err_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, si, i, 7]))
            theta = err_rng.uniform(0.0, 2.0 * np.pi)
            rad = cfg.error_disc_radius * math.sqrt(err_rng.uniform())
            start = world.tcp + world.basis @ (rad * np.array([np.cos(theta), np.sin(theta)]))
            assert repr(next(rows)) == repr(spiral_insert(world, start, pattern, cfg.timing))


def test_noisy_oracle_rows_depend_on_no_block_or_job_count(monkeypatch):
    # two blocks per style at 32 rows, so jobs=2 maps them over two processes; an
    # oracle's noise is keyed by each view it sees, so no row depends on its
    # block: 7 does not divide a style's 40 rows and 64 exceeds them
    cfg = _small_cfg(insertions_per_style_per_mode=20)
    monkeypatch.setattr(bench, "_BLOCK", 32)
    assert len(cfg.component_styles) * 20 * len(cfg.modes) > 2 * bench._BLOCK
    noisy = {s: (OracleModel(noise_sigma=0.02), OracleModel(noise_sigma=0.02))
             for s in cfg.component_styles}
    rows = run_benchmark(cfg, noisy).rows
    assert repr(run_benchmark(cfg, noisy, jobs=2).rows) == repr(rows)
    assert run_benchmark(cfg, noisy, jobs=2).rows == rows
    blocks, new_worlds = [], bench.new_worlds

    def recording(config, seeds):
        blocks.append((config, list(seeds)))
        return new_worlds(config, seeds)

    monkeypatch.setattr(bench, "new_worlds", recording)
    for size in (5, 7, 64):
        monkeypatch.setattr(bench, "_BLOCK", size)
        blocks.clear()
        assert repr(run_benchmark(cfg, noisy).rows) == repr(rows)
        # a block is one style: one config object, cut at the style boundary
        assert [c.component_style for c, _ in blocks] == [
            s for s in cfg.component_styles for _ in range(math.ceil(20 * 2 / size))]
        assert all(isinstance(c, WorldConfig) and 0 < len(seeds) <= size
                   for c, seeds in blocks)
        assert len({id(c) for c, _ in blocks}) == 2
        assert [seed for _, seeds in blocks for seed in seeds] == rows.columns["seed"].tolist()
    # the noise reaches the vs rows only: search-only episodes never servo
    pairs = list(zip(rows, run_benchmark(cfg, ORACLE_MODELS).rows))
    assert all(repr(a) == repr(b) for a, b in pairs if a.mode == "novs")
    assert any(a.post_servo_retrospective_error_mm != b.post_servo_retrospective_error_mm
               for a, b in pairs if a.mode == "vs")


def test_a_grid_pass_builds_no_episode_object(tmp_path, monkeypatch):
    # the episode record is columns from spiral_search to rows.csv: a mixed
    # grid and its report build no Episode, and the rows still act as a list
    built, init = [], Episode.__init__

    def counted(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(Episode, "__init__", counted)
    rep = run_benchmark(_small_cfg(insertions_per_style_per_mode=20), ORACLE_MODELS)
    emit_report(rep, tmp_path)
    assert built == []
    assert len(read_rows(tmp_path / "rows.csv")) == len(rep.rows) == 2 * 20 * 2
    assert len(built) == len(rep.rows)  # the count sees the Episodes read_rows builds


def _traced_peak(insertions):
    cfg = BenchConfig(component_styles=("led",), insertions_per_style_per_mode=insertions,
                      error_disc_radius=3.0, modes=("novs",))
    tracemalloc.start()
    try:
        run_benchmark(cfg, {})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_memory_grows_by_its_rows_only():
    # Episodes run a block at a time. A batch of the whole grid would hold
    # two (episodes, pattern) float arrays, 16 bytes per episode and offset
    # (18.5 kB per episode for this 1,159-offset pattern); the rows
    # themselves cost well under 1 kB per episode.
    _traced_peak(5)  # caches filled: the pattern, the shared basis
    growth = (_traced_peak(400) - _traced_peak(40)) / 360
    assert growth < 2_000, growth


def test_report_writer_peaks_below_a_row_at_a_time_writer(tmp_path):
    # emit_report formats _BLOCK rows of a column at a time; a writer that turns
    # every column into a list and every row into fields through csv_text peaks
    # at 1,044 kB on this 1,500-row search-only report
    cfg = BenchConfig(insertions_per_style_per_mode=300, error_disc_radius=3.0,
                      modes=("novs",))
    report = run_benchmark(cfg, {})
    emit_report(report, tmp_path)  # lazy imports and caches filled
    tracemalloc.start()
    try:
        emit_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_044_000, peak


def test_grid_episodes_build_no_collection_stream(monkeypatch):
    worlds, new_worlds = [], bench.new_worlds
    keys, kernel = [], pipeline.keyed_generators

    def recording(config, seeds):
        block = new_worlds(config, seeds)
        worlds.extend(block)
        return block

    def recording_keys(batch):
        keys.extend(batch)
        return kernel(batch)

    monkeypatch.setattr(bench, "new_worlds", recording)
    monkeypatch.setattr(pipeline, "keyed_generators", recording_keys)
    run_benchmark(_small_cfg(), ORACLE_MODELS)
    assert len(worlds) == 12
    assert keys == []


def test_the_grid_builds_one_servo_config_and_one_world_config_per_style(monkeypatch):
    # a grid's vs worlds share their style's ServoConfig, calibrated by the
    # style's WorldConfig, and each row's world is that config at the row's seed
    cfg = _small_cfg(insertions_per_style_per_mode=20)  # 40 vs worlds, a block per style
    built = {ServoConfig: [], WorldConfig: []}
    for cls, store in built.items():
        def counted(self, check=cls.__post_init__, store=store):
            store.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    rows = run_benchmark(cfg, ORACLE_MODELS).rows
    assert sum(r.mode == "vs" for r in rows) == 40
    styles, servos = built[WorldConfig], built[ServoConfig]
    assert [c.component_style for c in styles] == list(cfg.component_styles)
    assert len(servos) == len(styles) and all(
        s.calibration is w and s.models == ORACLE_MODELS[w.component_style]
        for s, w in zip(servos, styles))


def test_a_vs_grid_refuses_a_disc_it_would_render_behind_a_camera():
    # a 900 mm disc once ran until a servo render raised BehindCamera; the
    # disc is refused when the run is configured, and a 500 mm one runs
    raw = {"world": {"tolerance": 2.0},
           "bench": {"error_disc_radius": 500, "component_styles": ["led"],
                     "insertions_per_style_per_mode": 60, "modes": ["vs"]}}
    rep = run_benchmark(RunConfig.from_dict(raw).bench, ORACLE_MODELS)
    assert rep.success == {"vs": 60, "vs_total": 60, "novs": 0, "novs_total": 0}
    raw["bench"]["error_disc_radius"] = 900
    with pytest.raises(InvalidConfig, match=r"^error_disc_radius 900.0 puts a servoed peg "
                                            r"behind a camera$"):
        RunConfig.from_dict(raw)
    raw["bench"]["modes"] = ["novs"]  # a search-only grid renders nothing
    assert RunConfig.from_dict(raw).bench.error_disc_radius == 900


def test_a_vs_grid_refuses_a_drawn_peg_whose_disc_a_camera_cannot_see(monkeypatch):
    # the disc passes RunConfig's rule around the approach pose, but a 60 mm
    # grasp draw moves a peg's disc behind a camera: it once raised
    # BehindCamera mid-grid, and is now refused per row before its block renders
    raw = {"world": {"tolerance": 2.0, "grasp_uncertainty_sigma": 60},
           "bench": {"error_disc_radius": 702, "component_styles": ["led"],
                     "insertions_per_style_per_mode": 200, "modes": ["vs"]}}
    run = RunConfig.from_dict(raw)
    message = r"^seed (\d+): error_disc_radius 702.0 puts its servoed peg behind a camera$"
    with pytest.raises(InvalidConfig, match=message) as refused:
        run_benchmark(run.bench, ORACLE_MODELS)
    seed = int(re.match(message, str(refused.value)).group(1))
    [world] = new_worlds(run.world, [seed])
    peg = world.tcp + world.basis @ world.grasp_offset
    assert run.world.sees_disc(702.0) and not run.world.sees_disc(702.0 + CLAMP_MM, [peg])
    monkeypatch.setattr(servoing, "render_views", None)  # a render would raise TypeError
    servo = {"led": ServoConfig(ORACLE_MODELS["led"], run.world, 3, run.timing)}
    with pytest.raises(InvalidConfig, match=message):
        bench._run_block(run.bench, servo, (run.world, [0, seed], np.array([False, True]),
                                            np.zeros((2, 2))))
    # a 500 mm disc keeps every drawn peg's disc in sight, and the grid runs
    raw["bench"].update(error_disc_radius=500, insertions_per_style_per_mode=40)
    monkeypatch.undo()
    rep = run_benchmark(RunConfig.from_dict(raw).bench, ORACLE_MODELS)
    assert rep.success["vs_total"] == 40


def test_grid_rows_hold_at_most_52_bytes():
    # style and mode are uint8 codes: a str column of objects would cost 8
    # bytes a row more each (and every row's string stays alive in the grid)
    rows = run_benchmark(_small_cfg(), ORACLE_MODELS).rows
    assert sum(c.nbytes for c in rows.columns.values()) <= 52 * len(rows)


def test_a_batch_equals_itself_its_rerun_and_its_rows_csv(tmp_path):
    # a list of Episodes compares its nan fields by identity, which a batch
    # builds anew on each access: the batch compares its columns instead
    for cfg, models in ((BenchConfig(insertions_per_style_per_mode=2, modes=("novs",)), {}),
                        (_small_cfg(), ORACLE_MODELS)):
        rows = run_benchmark(cfg, models).rows
        assert rows == rows and rows == list(rows)
        assert rows == run_benchmark(cfg, models).rows
        emit_report(build_report(rows), tmp_path)
        assert rows == read_rows(tmp_path / "rows.csv")
        moved = Episodes(**{name: c.copy() for name, c in rows.columns.items()})
        moved.columns["time_s"][1] = np.nextafter(moved.columns["time_s"][1], np.inf)
        assert rows != moved and not rows == moved and rows != list(rows)[:-1]


def test_missing_models_rejected():
    with pytest.raises(ModelsNotDeployed):
        run_benchmark(_small_cfg(), {"led": ORACLE_MODELS["led"]})
    # spiral-only runs need no models at all
    rep = run_benchmark(_small_cfg(modes=("novs",)), {})
    assert len(rep.rows) == 6
    assert all(r.mode == "novs" for r in rep.rows)


def test_bench_config_validation():
    with pytest.raises(InvalidConfig):
        BenchConfig(component_styles=("led", "thermistor"))
    with pytest.raises(InvalidConfig):
        BenchConfig(insertions_per_style_per_mode=0)
    with pytest.raises(InvalidConfig):
        BenchConfig(modes=("vs", "walk"))
    with pytest.raises(InvalidConfig, match="seed"):
        BenchConfig(seed=-1)
    for bad in (0, -1, 2.5):
        with pytest.raises(InvalidConfig, match="n_iters"):
            BenchConfig(n_iters=bad)


@pytest.mark.parametrize("name", ["seed", "insertions_per_style_per_mode"])
def test_bench_config_integer_field_is_an_integer(name):
    for bad in (2.5, "3", True, None):
        with pytest.raises(InvalidConfig, match=f"{name} must be an integer"):
            BenchConfig(**{name: bad})
    assert type(getattr(BenchConfig(**{name: np.int64(3)}), name)) is int


def test_bench_config_refuses_a_pattern_it_cannot_build():
    # when the config is built, not at the grid's first block
    with pytest.raises(InvalidTolerance, match="makes more than 1000000 offsets"):
        BenchConfig(world_template=WorldConfig(tolerance=1e-300))


# ---------------------------------------------------------------- run config


def test_run_config_builds_bench_once_with_the_runs_world_and_timing():
    raw = {"world": {"tolerance": 0.2, "seed": 7}, "timing": {"t_attempt": 0.5},
           "bench": {"seed": 3}, "gate": {"max_val_mae_mm": 0.04}}
    run = RunConfig.from_dict(raw, seed=9)
    assert run.bench.world_template is run.world and run.bench.timing is run.timing
    assert (run.world.tolerance, run.world.seed, run.bench.seed) == (0.2, 9, 3)
    assert run.gate == DeploymentGate(0.04) and RunConfig.from_dict({}).gate is None
    assert config_to_dict(RunConfig().world) == config_to_dict(RunConfig.from_dict({}).world)


def test_run_config_refuses_an_unknown_section_and_a_bench_of_another_world():
    with pytest.raises(InvalidConfig, match=r"^unknown config sections: \['worlds'\]; "
                       r"expected a subset of \['bench', 'collection', 'gate', 'timing', "
                       r"'train', 'world'\]$"):
        RunConfig.from_dict({"worlds": {}})
    with pytest.raises(InvalidConfig, match="bench must run the run's world and timing"):
        RunConfig(world=WorldConfig(tolerance=0.2))
    with pytest.raises(InvalidConfig, match="bench must run the run's world and timing"):
        RunConfig(timing=TimingModel(t_attempt=0.5))


def test_train_styles_trains_what_a_factory_per_index_trains():
    # one new_worlds call per style draws the worlds that new_world draws one by one
    run = RunConfig.from_dict({
        "collection": {"n_insertions": 3, "samples_per_insertion": 5, "train_insertions": 2},
        "bench": {"component_styles": ["led", "dsub"]}})
    results = train_styles(run, 40)
    assert list(results) == ["led", "dsub"]
    for style, res in results.items():
        styled = replace(run.world, component_style=style)
        ref = configure(lambda i, w=styled: new_world(replace(w, seed=40 + i)),
                        run.collection, run.train, run.gate)
        assert res.decision == ref.decision and res.metrics == ref.metrics
        for j, model in res.models.items():
            assert np.array_equal(model.weights, ref.models[j].weights)


_TILT = [math.sin(0.5), 0.0, -math.cos(0.5)]


@settings(max_examples=60, deadline=None)
@given(log_radius=st.floats(0.0, 8.0), azimuth=st.floats(0.0, 2.0 * math.pi),
       tilt=st.floats(0.0, 1.2), heading=st.floats(0.0, 2.0 * math.pi))
@example(log_radius=math.log10(3e7), azimuth=0.0, tilt=0.5, heading=0.0)
def test_a_world_the_rounding_rule_accepts_spirals_over_its_disc_in_plane(
        log_radius, azimuth, tilt, heading):
    # holes up to 1e8 mm out, insertion directions up to 1.2 rad off vertical
    hole = 10.0 ** log_radius * np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    direction = [math.sin(tilt) * math.cos(heading), math.sin(tilt) * math.sin(heading),
                 -math.cos(tilt)]
    world = {"nominal_hole": hole.tolist(), "insertion_direction": direction}
    far = hole.tolist() == [3e7, 0.0, 0.0] and direction == _TILT
    try:
        run = RunConfig.from_dict({"world": world})
    except InvalidConfig as exc:  # the 3e7 mm world is refused by the rule
        assert not far or "in-plane moves there can round" in str(exc)
        return
    assert not far
    worlds = new_worlds(run.world, range(4))
    radius = run.bench.error_disc_radius
    for k, w in enumerate(worlds):  # a start on the disc's rim, then a hole no offset
        angle = k * math.pi / 2.0  # reaches, so each spiral walks its whole pattern
        move_tcp(w, w.tcp + w.basis @ (radius * np.array([math.cos(angle), math.sin(angle)])))
        w.true_hole = w.true_hole + w.basis[:, 0] * 10.0 * radius
    pattern = generate_pattern(run.world.tolerance, radius)
    episodes = spiral_search(worlds, pattern, run.timing)
    assert [e.attempts for e in episodes] == [len(pattern)] * 4


# ---------------------------------------------------------------- fit


def test_fit_recovers_planted_quadratic():
    c = 0.302
    errors = np.geomspace(0.1, 1.0, 12)
    rows = [(float(e), float(c * e * e)) for e in errors]
    fit = fit_quadratic_law(rows)
    assert fit["slope"] == pytest.approx(2.0, abs=1e-6)
    assert fit["intercept"] == pytest.approx(math.log(c), abs=1e-6)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-9)
    assert fit["n"] == 12
    # a pair that is not finite and > 0 is left out, in a list or an array
    unusable = [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)]
    assert fit_quadratic_law(np.array(unusable[:3] + rows + unusable[3:])) == fit


def test_law_fit_reads_only_successful_novs_rows(tmp_path):
    rows = [Episode(style="led", mode="novs", seed=i,
                    retrospective_error_mm=float(e), true_error_mm=float(e),
                    time_s=float(0.3 * e * e), attempts=2, success=True,
                    post_servo_retrospective_error_mm=float("nan"),
                    direct=False)
            for i, e in enumerate(np.geomspace(0.2, 1.2, 15))]
    rows.append(replace(rows[0], success=False, retrospective_error_mm=float("nan"),
                        time_s=999.0))  # ignored: failed
    rows.append(replace(rows[1], mode="vs", time_s=999.0,
                        post_servo_retrospective_error_mm=0.0))  # ignored: servoed
    emit_report(build_report(rows), tmp_path)
    fit = json.loads((tmp_path / "summary.json").read_text())["quadratic_law"]
    assert fit["slope"] == pytest.approx(2.0, abs=1e-6)
    assert fit["n"] == 15


def test_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_quadratic_law([(0.5, 1.0)] * 5)
    # 12 points but under a 3x error span
    narrow = [(float(e), float(e * e)) for e in np.linspace(0.5, 1.2, 12)]
    with pytest.raises(InsufficientData):
        fit_quadratic_law(narrow)


# ---------------------------------------------------------------- report


def test_build_report_aggregates_by_hand():
    def row(style, mode, t, err=0.5, success=True, attempts=2):
        return Episode(style=style, mode=mode, seed=0,
                       retrospective_error_mm=err, true_error_mm=err,
                       time_s=t, attempts=attempts, success=success,
                       post_servo_retrospective_error_mm=0.01 if mode == "vs" else float("nan"),
                       direct=bool(mode == "vs" and attempts == 1))

    rows = [row("led", "vs", 1.5, attempts=1), row("led", "vs", 1.7),
            row("led", "novs", 12.0), row("led", "novs", 20.0)]
    rep = build_report(rows)
    assert rep.overall["vs_mean_time_s"] == pytest.approx(1.6, abs=1e-12)
    assert rep.overall["novs_mean_time_s"] == pytest.approx(16.0, abs=1e-12)
    assert rep.speedup == pytest.approx(10.0, abs=1e-9)
    assert rep.success == {"vs": 2, "vs_total": 2, "novs": 2, "novs_total": 2}
    assert rep.direct["vs"] == 1
    assert rep.mean_post_servo_retro_mm == pytest.approx(0.01, abs=1e-12)


def test_emit_report_files_and_determinism(tmp_path):
    rep = run_benchmark(_small_cfg(), ORACLE_MODELS)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_report(rep, d1)
    emit_report(rep, d2)
    names = ["table.csv", "scatter.csv", "rows.csv", "summary.json", "scatter.svg"]
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    table = (d1 / "table.csv").read_text().splitlines()
    assert table[0] == "style,vs_time_s,novs_time_s,speedup"
    assert len(table) == 1 + 2 + 1  # 2 styles + average row
    assert table[-1].startswith("average,")
    scatter = (d1 / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "error_mm,time_s,mode"
    assert len(scatter) == 1 + len(rep.rows)


def test_zero_search_time_has_one_speedup(tmp_path):
    # free search attempts: the search-only mean is 0.0, so the speedup is 0.0
    # in summary.json, in the average row and in the style's own row
    cfg = _small_cfg(component_styles=("led",), timing=TimingModel(t_attempt=0.0))
    emit_report(run_benchmark(cfg, ORACLE_MODELS), tmp_path)
    table = [line.split(",") for line in (tmp_path / "table.csv").read_text().splitlines()]
    assert [row[0] for row in table] == ["style", "led", "average"]
    assert table[1][2] == table[2][2] == "0.0"
    assert table[1][3] == table[2][3] == "0.0"
    assert json.loads((tmp_path / "summary.json").read_text())["speedup"] == 0.0


def test_summary_recomputable_from_scatter(tmp_path):
    rep = run_benchmark(_small_cfg(), ORACLE_MODELS)
    emit_report(rep, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    times = {"vs": [], "novs": []}
    for line in (tmp_path / "scatter.csv").read_text().splitlines()[1:]:
        _err, t, mode = line.split(",")
        times[mode].append(float(t))
    for mode in ("vs", "novs"):
        assert summary["overall"][f"{mode}_mean_time_s"] == float(np.mean(times[mode]))
    assert summary["speedup"] == (float(np.mean(times["novs"]))
                                  / float(np.mean(times["vs"])))


def test_empty_styles_degenerate_report(tmp_path):
    rep = run_benchmark(BenchConfig(component_styles=()), {})
    assert rep.rows == []
    emit_report(rep, tmp_path)
    assert (tmp_path / "table.csv").read_text() == "style,vs_time_s,novs_time_s,speedup\n"
    assert (tmp_path / "scatter.csv").read_text() == "error_mm,time_s,mode\n"
    svg = (tmp_path / "scatter.svg").read_text()
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_rows"] == 0
    assert summary["quadratic_law"] is None


def test_scatter_svg_contains_points(tmp_path):
    rep = run_benchmark(_small_cfg(), ORACLE_MODELS)
    emit_report(rep, tmp_path)
    root = ET.fromstring((tmp_path / "scatter.svg").read_text())
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    # one circle per finite row plus 2 legend markers
    finite = sum(1 for r in rep.rows if not math.isnan(r.retrospective_error_mm))
    assert len(circles) == finite + 2


@pytest.mark.parametrize("big, top_label", [(1e308, "1.05e+308"),
                                             (1.7976931348623157e308, "1.8e+308")])
def test_scatter_svg_stays_finite_at_any_error(tmp_path, big, top_label):
    # (x1 - x0) e / emax once overflowed past about 3e305 mm: x="inf" and a
    # 300-digit tick label
    rows = [Episode(style="led", mode="novs", seed=0, retrospective_error_mm=e,
                    true_error_mm=e, time_s=t, attempts=2, success=True,
                    post_servo_retrospective_error_mm=math.nan, direct=False)
            for e, t in ((big, 2.0), (0.5, 1.0))]
    emit_report(build_report(rows), tmp_path)
    root = ET.fromstring((tmp_path / "scatter.svg").read_text())
    svg = "{http://www.w3.org/2000/svg}"
    coords = [float(v) for el in root.iter() for name, v in el.attrib.items()
              if name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")]
    assert coords and all(math.isfinite(v) for v in coords)
    ticks = [el.text for el in root.iter(f"{svg}text")
             if el.get("text-anchor") == "middle" and el.get("font-size") == "12"]
    assert len(ticks) == 5 and all(len(t) <= 10 for t in ticks)
    assert ticks[0] == "0.00" and ticks[-1] == top_label  # the axis ends at 1.05 e or the top
    # 0.5 sits at the axis' start, the big error near its end (at it once 1.05 e overflows)
    cx = sorted(float(c.get("cx")) for c in root.iter(f"{svg}circle") if c.get("fill-opacity"))
    assert cx[0] == pytest.approx(60.0, abs=0.01) and 560.0 < cx[1] <= 620.0


_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
_errors = st.one_of(st.floats(allow_nan=False, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf]))
# what a run writes: finite times and errors >= 0 (-0.0 among them)
_written = st.one_of(st.floats(min_value=0.0, allow_infinity=False),
                     st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308]))


def _a_run_writes(row) -> bool:
    """read_rows' range rule, one value at a time: a 63-bit seed, and a finite time
    and errors >= 0 where they are numbers."""
    numbers = [row.time_s, row.true_error_mm] + [
        e for e in (row.retrospective_error_mm, row.post_servo_retrospective_error_mm)
        if not math.isnan(e)]
    return 0 <= row.seed <= 2**63 - 1 and all(0.0 <= v < math.inf for v in numbers)


@st.composite
def episodes(draw, numbers=_written, errors=_written):
    """Random Episodes that keep every rule read_rows checks (with numbers and errors
    wider than _written, every rule but the range rule)."""
    mode, success = draw(st.sampled_from(BENCH_MODES)), draw(st.booleans())
    attempts = draw(st.one_of(st.just(1), st.integers(1, 10**6)))
    return Episode(style=draw(st.sampled_from(COMPONENT_STYLES)), mode=mode,
                   seed=draw(st.integers(0, 2**63 - 1)),
                   retrospective_error_mm=draw(errors) if success else math.nan,
                   true_error_mm=draw(numbers), time_s=draw(numbers),
                   attempts=attempts, success=success,
                   post_servo_retrospective_error_mm=(draw(errors)
                                                      if success and mode == "vs"
                                                      else math.nan),
                   direct=success and attempts == 1)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(episodes(), max_size=8))
def test_rows_csv_round_trip(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("rows")
    with np.errstate(over="ignore", invalid="ignore"):  # means of huge floats
        emit_report(build_report(rows), out)
    assert repr(read_rows(out / "rows.csv")) == repr(rows)


@st.composite
def numpy_float_episodes(draw):
    """An Episode with some of its floats np.float64, and the same Episode in
    Python floats only; its floats may be any, nan and infinities included."""
    row = draw(episodes(_floats, _errors))
    numpy = {f.name: np.float64(getattr(row, f.name)) for f in fields(Episode)
             if f.type is float and draw(st.booleans())}
    return row, replace(row, **numpy)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(numpy_float_episodes(), max_size=8))
def test_numpy_floats_write_the_csv_of_python_ones(tmp_path_factory, pairs):
    python, numpy = [p for p, _ in pairs], [n for _, n in pairs]
    outs = tmp_path_factory.mktemp("python"), tmp_path_factory.mktemp("numpy")
    with np.errstate(over="ignore", invalid="ignore"):  # means of huge floats
        for rows, out in zip((python, numpy), outs):
            emit_report(build_report(rows), out)
    for name in ("rows.csv", "scatter.csv", "table.csv", "summary.json"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
    if all(map(_a_run_writes, python)):
        assert repr(read_rows(outs[1] / "rows.csv")) == repr(python)
    else:
        with pytest.raises(CorruptArtifact, match="out of range"):
            read_rows(outs[1] / "rows.csv")


def test_numpy_timing_rows_read_back(tmp_path):
    # durations from np.linspace are stored as Python floats, so rows.csv
    # holds plain numbers that pegservo report reads back
    t_attempt, t_move = np.linspace(0.2, 0.4, 2)
    timing = TimingModel(t_attempt=t_attempt, t_move=t_move)
    assert type(timing.t_attempt) is type(timing.t_move) is float
    emit_report(run_benchmark(_small_cfg(timing=timing), ORACLE_MODELS), tmp_path / "b")
    assert main(["report", "--rows", str(tmp_path / "b" / "rows.csv"),
                 "--out", str(tmp_path / "r")]) == 0
    assert ((tmp_path / "r" / "rows.csv").read_bytes()
            == (tmp_path / "b" / "rows.csv").read_bytes())


_GOOD = {"vs": "led,vs,5,0.02,0.3,1.5,1,1,0.02,1",
         "novs": "led,novs,5,0.25,0.3,2.5,10,1,nan,0"}


@pytest.mark.parametrize("mode, old, new", [
    ("novs", ",10,1,nan,0", ",0,1,nan,0"),  # attempts < 1
    ("vs", ",1,1,0.02,1", ",0,1,0.02,0"),
    ("vs", ",1,1,0.02,1", ",1,1,0.02,0"),  # direct on a first-attempt success
    ("novs", ",10,1,nan,0", ",10,1,nan,1"),  # direct after 10 attempts
    ("vs", "0.02,0.3,1.5,1,1,0.02,1", "nan,0.3,1.5,7,0,nan,1"),  # direct failure
    ("novs", "0.25,", "nan,"),  # success without a retrospective error
    ("novs", "0.25,0.3,2.5,10,1", "0.25,0.3,2.5,10,0"),  # failure with one
    ("novs", ",nan,0", ",0.25,0"),  # novs with a post-servo error
    ("vs", ",1,1,0.02,1", ",1,1,nan,1"),  # vs success without one
    ("vs", "0.02,0.3,1.5,1,1,0.02,1", "nan,0.3,1.5,7,0,0.02,0"),  # failure with one
], ids=["attempts-0", "attempts-0-vs", "not-direct", "direct-10", "direct-failure",
        "success-nan", "failure-finite", "novs-post", "vs-success-post-nan",
        "vs-failure-post"])
def test_read_rows_rejects_contradictory_rows(tmp_path, mode, old, new):
    assert old in _GOOD[mode]
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(f.name for f in fields(Episode)),
                               _GOOD["vs"], _GOOD["novs"],
                               _GOOD[mode].replace(old, new)]) + "\n")
    with pytest.raises(CorruptArtifact, match="line 4: "):
        read_rows(path)
    path.write_text("\n".join(path.read_text().splitlines()[:3]) + "\n")
    assert [r.mode for r in read_rows(path)] == ["vs", "novs"]


@pytest.mark.parametrize("name, good, bad", [("style", "led,", "bogus,"),
                                             ("mode", ",novs,", ",search,")])
def test_read_rows_rejects_an_unknown_style_or_mode(tmp_path, name, good, bad):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(f.name for f in fields(Episode)), _GOOD["vs"],
                               _GOOD["novs"].replace(good, bad)]) + "\n")
    value = bad.strip(",")
    with pytest.raises(CorruptArtifact, match=f"line 3: unknown {name} '{value}'$"):
        read_rows(path)


@pytest.mark.parametrize("mode, old, new", [
    ("novs", "led,novs,5,", "led,novs,-5,"),  # once made the seed column float64
    ("novs", "led,novs,5,", f"led,novs,{2**63},"),
    ("novs", "led,novs,5,", f"led,novs,{2**64 - 1},"),
    ("novs", ",2.5,10,", ",-2.5,10,"),  # time_s
    ("novs", ",2.5,10,", ",inf,10,"),
    ("novs", ",2.5,10,", ",nan,10,"),
    ("vs", ",0.3,1.5,", ",-0.3,1.5,"),  # true_error_mm
    ("vs", ",0.3,1.5,", ",inf,1.5,"),
    ("vs", ",0.3,1.5,", ",nan,1.5,"),
    ("vs", ",5,0.02,", ",5,inf,"),  # retrospective_error_mm
    ("vs", ",5,0.02,", ",5,-0.02,"),
    ("vs", ",1,1,0.02,1", ",1,1,inf,1"),  # post_servo_retrospective_error_mm
    ("vs", ",1,1,0.02,1", ",1,1,-0.02,1"),
], ids=["seed-negative", "seed-2**63", "seed-2**64-1", "time-negative", "time-inf",
        "time-nan", "true-negative", "true-inf", "true-nan", "retro-inf", "retro-negative",
        "post-inf", "post-negative"])
def test_read_rows_rejects_a_value_no_run_writes(tmp_path, mode, old, new):
    assert old in _GOOD[mode]
    path = tmp_path / "rows.csv"
    header = ",".join(f.name for f in fields(Episode))
    path.write_text("\n".join([header, _GOOD["vs"], _GOOD[mode].replace(old, new)]) + "\n")
    with pytest.raises(CorruptArtifact, match="line 3: seed, time or error out of range"):
        read_rows(path)
    # the largest seed a run writes reads back as an integer column, and a -0.0 time
    edge = _GOOD[mode].replace(",5,", f",{2**63 - 1},").replace(
        ",2.5,10,", ",-0.0,10,").replace(",1.5,1,", ",-0.0,1,")
    path.write_text("\n".join([header, _GOOD["vs"], edge]) + "\n")
    rows = read_rows(path)
    assert rows.columns["seed"].dtype == np.int64
    assert rows.columns["seed"].tolist() == [5, 2**63 - 1]


def test_episodes_of_refuses_an_unknown_style_or_mode():
    row = Episode("led", "novs", 5, 0.25, 0.3, 2.5, 10, True, math.nan, False)
    assert repr(Episodes.of([row])[0]) == repr(row)
    for name, value in (("style", "bogus"), ("mode", "search")):
        with pytest.raises(InvalidConfig, match=f"^unknown {name} '{value}'; expected one of"):
            Episodes.of([row, replace(row, **{name: value})])
