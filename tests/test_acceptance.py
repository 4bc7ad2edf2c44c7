"""Release gate: the nine guarantees this toolkit ships with.

One test per criterion; each prints a single `criterion N: PASS/FAIL` verdict
line (visible with -s, or in captured output on failure) and asserts both the
quality bar and its wall-clock budget.
"""

import hashlib
import json
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import gradient_check, init_mlp
from pegservo.bench import (BenchConfig, emit_report, fit_quadratic_law,
                            run_benchmark)
from pegservo.geometry import (error_direction, inplane_basis,
                               reconstruct_error, scalar_error, vec3)
from pegservo.perception import OracleModel, TrainConfig, save_model, train
from pegservo.pipeline import (CollectionConfig, DeploymentGate,
                               collect_dataset, configure, split_by_insertion)
from pegservo.search import generate_pattern
from pegservo.servoing import ServoConfig, servo_config_for, visual_servo
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                          move_tcp, new_world, spiral_insert,
                          true_inplane_error)

CLOCK = time.perf_counter
RIDGE = TrainConfig(kind="ridge", robust_norm=True)
GATE = DeploymentGate(max_val_mae_mm=0.05)  # half the 0.1 mm clearance


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _corr(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        # a constant is independent of anything; report zero correlation
        # instead of the nan that np.corrcoef would produce
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _style_factory(style, base=1000):
    def factory(i):
        return new_world(WorldConfig(component_style=style, seed=base + i))
    return factory


@pytest.fixture(scope="module")
def deployed():
    """Self-supervised configuration of every component style (criterion 6)."""
    t0 = CLOCK()
    results = {style: configure(_style_factory(style), CollectionConfig(),
                                RIDGE, GATE)
               for style in COMPONENT_STYLES}
    return results, CLOCK() - t0


@pytest.fixture(scope="module")
def bench_outcome(deployed):
    """Default benchmark run shared by criteria 7, 8 and 9."""
    results, train_elapsed = deployed
    models = {style: tuple(res.models[j] for j in sorted(res.models))
              for style, res in results.items()}
    t0 = CLOCK()
    report = run_benchmark(BenchConfig(), models)
    return report, models, CLOCK() - t0, train_elapsed


# ------------------------------------------------------------ criterion 1


def test_criterion_1_error_reconstruction_matches_planted_error():
    budget = 5.0
    l = vec3(0.0, 0.0, -1.0)
    B = inplane_basis(l)
    rng = np.random.default_rng(2024)
    t0 = CLOCK()
    worst = 0.0
    for _ in range(10_000):
        e = B @ rng.uniform(-2.0, 2.0, size=2)
        n_cams = int(rng.integers(2, 5))
        dirs, qs = [], []
        for _ in range(n_cams):
            pos = rng.normal(size=3) * 300.0
            pos[2] = abs(pos[2]) + 100.0
            view = -pos
            if np.linalg.norm(np.cross(l, view)) < 1e-3 * np.linalg.norm(view):
                view = view + vec3(50.0, 0.0, 0.0)
            u = error_direction(l, view)
            dirs.append(u)
            qs.append(scalar_error(e, u))
        rec = reconstruct_error(dirs, qs)
        worst = max(worst, float(np.linalg.norm(rec.error - e)))
    elapsed = CLOCK() - t0
    ok = worst <= 1e-9 and elapsed < budget
    _verdict(1, ok, f"10^4 scenes, worst |e_hat - e| {worst:.3e} mm "
                    f"(<= 1e-9), {elapsed:.2f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_pattern_covering_radius():
    budget = 30.0
    t0 = CLOCK()
    worst = []
    for eps in (0.05, 0.1, 0.3):
        for radius in (0.5, 1.0, 2.0):
            pattern = generate_pattern(eps, radius)
            pts = np.asarray(pattern.offsets)
            step = eps / 20.0
            ax = np.arange(-radius, radius + step, step)
            gx, gy = np.meshgrid(ax, ax)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            grid = grid[np.hypot(grid[:, 0], grid[:, 1]) <= radius]
            dist, _ = cKDTree(pts).query(grid, k=1)
            worst.append((eps, radius, float(dist.max())))
    elapsed = CLOCK() - t0
    ok = all(cover <= eps for eps, _r, cover in worst) and elapsed < budget
    hardest = max(worst, key=lambda w: w[2] / w[0])
    _verdict(2, ok, f"9 tolerance/radius combos, tightest covering "
                    f"{hardest[2]:.4f} mm at eps={hardest[0]} (all <= eps), "
                    f"{elapsed:.2f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 3


_MC_ERRORS = (0.3, 0.6, 1.2)


def _spiral_monte_carlo():
    """(error_mm, time_s) for 200 seeded spiral-only episodes per level."""
    eps = 0.05
    pattern = generate_pattern(eps, 1.3)
    timing = TimingModel()
    rows = []
    for err in _MC_ERRORS:
        for seed in range(200):
            world = new_world(WorldConfig(tolerance=eps,
                                          hole_uncertainty_sigma=0.0,
                                          grasp_uncertainty_sigma=0.0,
                                          seed=seed))
            ang = np.random.default_rng(
                np.random.SeedSequence([seed, 5])).uniform(0.0, 2.0 * np.pi)
            offset = err * np.array([np.cos(ang), np.sin(ang)])
            move_tcp(world, world.tcp + world.basis @ offset)
            out = spiral_insert(world, world.tcp, pattern, timing)
            rows.append((err, out.time_s))
    return rows


def _mc_csv(rows):
    lines = ["error_mm,time_s"]
    lines += [f"{float(e)!r},{float(t)!r}" for e, t in rows]
    return ("\n".join(lines) + "\n").encode()


def test_criterion_3_spiral_time_scales_quadratically():
    budget = 60.0
    t0 = CLOCK()
    rows = _spiral_monte_carlo()
    fit = fit_quadratic_law(rows)
    elapsed = CLOCK() - t0
    ok = abs(fit["slope"] - 2.0) <= 0.2 and elapsed < budget
    _verdict(3, ok, f"log-log slope {fit['slope']:.4f} (2.0 +/- 0.2), "
                    f"r2 {fit['r2']:.4f}, n {fit['n']}, "
                    f"{elapsed:.2f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_noiseless_oracle_cancels_in_one_step():
    budget = 1.0
    oracles = (OracleModel(), OracleModel())
    rng = np.random.default_rng(3)
    t0 = CLOCK()
    worst_one_step = 0.0
    for mag in (0.05, 0.3, 1.0, 1.9999):
        for _ in range(5):
            seed = int(rng.integers(1 << 30))
            world = new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                                          grasp_uncertainty_sigma=0.0,
                                          seed=seed))
            ang = rng.uniform(0.0, 2.0 * np.pi)
            offset = mag * np.array([np.cos(ang), np.sin(ang)])
            move_tcp(world, world.tcp + world.basis @ offset)
            cfg = servo_config_for(world, oracles, n_iters=1)
            _, [residuals] = visual_servo(world, cfg)
            worst_one_step = max(worst_one_step, residuals[-1],
                                 true_inplane_error(world))
    world = new_world(WorldConfig(hole_uncertainty_sigma=0.0,
                                  grasp_uncertainty_sigma=0.0, seed=77))
    move_tcp(world, world.tcp + world.basis @ np.array([1.2, -0.9]))
    _, [residuals] = visual_servo(world, servo_config_for(world, oracles, n_iters=3))
    elapsed = CLOCK() - t0
    ok = (worst_one_step <= 1e-9 and len(residuals) == 3
          and max(residuals) <= 1e-9 and elapsed < budget)
    _verdict(4, ok, f"one-step residual {worst_one_step:.3e} mm (<= 1e-9), "
                    f"3-iter residuals max {max(residuals):.3e} mm, "
                    f"{elapsed:.3f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_mlp_gradients_match_finite_differences():
    budget = 30.0
    t0 = CLOCK()
    ccfg = CollectionConfig(n_insertions=4, samples_per_insertion=25,
                            train_insertions=3)
    pattern = generate_pattern(0.1, ccfg.max_offset_mag)
    ds = collect_dataset(_style_factory("led"), ccfg, pattern)
    cam0 = ds.by_camera(0)
    hyper = TrainConfig(kind="mlp", max_epochs=10, patience=10)
    dev_init = gradient_check(init_mlp(cam0, hyper), cam0)
    tr, va = split_by_insertion(ds, ccfg.train_insertions, hyper.seed)
    model, report = train(tr.by_camera(0), va.by_camera(0), hyper)
    dev_post = gradient_check(model, cam0)
    elapsed = CLOCK() - t0
    ok = (dev_init <= 1e-4 and dev_post <= 1e-4
          and report.epochs_run == 10 and elapsed < budget)
    _verdict(5, ok, f"max relative deviation {dev_init:.2e} at init, "
                    f"{dev_post:.2e} after {report.epochs_run} epochs "
                    f"(<= 1e-4), {elapsed:.2f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_all_styles_reach_deploy(deployed):
    budget = 600.0
    results, elapsed = deployed
    maes = {style: max(m["mae_mm"] for m in res.metrics.values())
            for style, res in results.items()}
    ok = (all(res.decision == "deploy" for res in results.values())
          and elapsed < budget)
    detail = ", ".join(f"{s} {maes[s]:.4f}" for s in COMPONENT_STYLES)
    _verdict(6, ok, f"val mae mm [{detail}] all <= {GATE.max_val_mae_mm}, "
                    f"{elapsed:.1f}s (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_servo_beats_search_by_10x(bench_outcome):
    budget = 900.0
    report, _models, bench_elapsed, train_elapsed = bench_outcome
    elapsed = bench_elapsed + train_elapsed
    ok = (report.speedup >= 10.0
          and report.success["vs"] == 50 and report.success["vs_total"] == 50
          and report.success["novs"] >= 45
          and report.success["novs_total"] == 50
          and elapsed < budget)
    _verdict(7, ok, f"speedup {report.speedup:.2f}x (>= 10), "
                    f"servo {report.success['vs']}/50, "
                    f"search-only {report.success['novs']}/50 (>= 45), "
                    f"{elapsed:.1f}s incl. training (< {budget:.0f}s)")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_time_error_structure(bench_outcome):
    report, _models, _b, _t = bench_outcome
    vs = [r for r in report.rows if r.mode == "vs"]
    novs = [r for r in report.rows if r.mode == "novs" and r.success]
    corr_vs = _corr([r.true_error_mm for r in vs], [r.time_s for r in vs])
    corr_novs = _corr([r.true_error_mm for r in novs],
                      [r.time_s for r in novs])
    direct_frac = report.direct["vs"] / len(vs)
    post = report.mean_post_servo_retro_mm
    ok = (abs(corr_vs) <= 0.3 and corr_novs >= 0.5
          and post <= 0.05 and direct_frac >= 0.7)
    _verdict(8, ok, f"servo time/error corr {corr_vs:.3f} (|.| <= 0.3), "
                    f"search corr {corr_novs:.3f} (increasing), "
                    f"mean post-servo error {post:.4f} mm (<= 0.05), "
                    f"direct insertions {direct_frac:.0%} (>= 70%)")


def test_a_vs_rows_time_is_its_servo_configs_plus_its_search(bench_outcome):
    # a servo has no convergence exit: every vs row's time is its style's
    # ServoConfig.time_s plus its own spiral's attempts, bit for bit
    report, models, _b, _t = bench_outcome
    cfg = BenchConfig()
    servo_s = {style: ServoConfig(models[style],
                                  replace(cfg.world_template, component_style=style),
                                  cfg.n_iters, cfg.timing).time_s for style in models}
    assert set(servo_s.values()) == {1.2990000000000002}  # 3 * (2 * 0.15 + 0.133)
    vs = [r for r in report.rows if r.mode == "vs"]
    assert len(vs) == 50
    for r in vs:
        assert r.time_s == servo_s[r.style] + r.attempts * cfg.timing.t_attempt


# ------------------------------------------------------------ criterion 9


def test_criterion_9_reruns_are_byte_identical(bench_outcome, tmp_path):
    report, models, _b, _t = bench_outcome

    # quadratic-law study (criterion 3) twice
    rows_a = _spiral_monte_carlo()
    rows_b = _spiral_monte_carlo()
    mc_ok = _mc_csv(rows_a) == _mc_csv(rows_b)
    fit_ok = (json.dumps(fit_quadratic_law(rows_a), sort_keys=True)
              == json.dumps(fit_quadratic_law(rows_b), sort_keys=True))

    # self-supervised configuration (criterion 6) twice for one style
    res_a = configure(_style_factory("led"), CollectionConfig(), RIDGE, GATE)
    res_b = configure(_style_factory("led"), CollectionConfig(), RIDGE, GATE)
    model_ok = True
    for j in sorted(res_a.models):
        da, db = tmp_path / f"a{j}", tmp_path / f"b{j}"
        save_model(res_a.models[j], da)
        save_model(res_b.models[j], db)
        for name in ("model.json", "weights.bin"):
            model_ok &= (da / name).read_bytes() == (db / name).read_bytes()
    metrics_ok = (json.dumps(res_a.metrics, sort_keys=True)
                  == json.dumps(res_b.metrics, sort_keys=True))

    # benchmark (criterion 7) twice, through the report writer
    report2 = run_benchmark(BenchConfig(), models)
    d1, d2 = tmp_path / "bench1", tmp_path / "bench2"
    emit_report(report, d1)
    emit_report(report2, d2)
    bench_ok = all((d1 / n).read_bytes() == (d2 / n).read_bytes()
                   for n in ("table.csv", "scatter.csv", "rows.csv",
                             "summary.json", "scatter.svg"))

    ok = mc_ok and fit_ok and model_ok and metrics_ok and bench_ok
    _verdict(9, ok, f"monte-carlo csv identical: {mc_ok}, fit json: {fit_ok}, "
                    f"model bytes: {model_ok}, val metrics: {metrics_ok}, "
                    f"benchmark artifacts: {bench_ok}")


# ------------------------------------------------- the default pipeline's bytes


_REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"


def _model_digest(model) -> str:
    """perfbench's model digest: sha256 of a ridge model's feat_mean, feat_std,
    weights and [bias, lam], each as little-endian float64 bytes, in that order."""
    h = hashlib.sha256()
    for a in (model.spec.feat_mean, model.spec.feat_std, model.weights,
              [model.bias, model.lam]):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_default_pipeline_writes_the_reference_bytes(deployed, bench_outcome, tmp_path):
    # perfbench's reference file is the one pin: the configure workload's ten
    # models are the deployed fixture's, the servo-grid's report is criterion
    # 7's grid, and the search-wide grid is rebuilt here
    results, _ = deployed
    got = {"configure": {f"{style}/cam{j}": _model_digest(model)
                         for style, res in results.items() for j, model in res.models.items()}}
    wide = run_benchmark(BenchConfig(insertions_per_style_per_mode=300, error_disc_radius=3.0,
                                     modes=("novs",)), {})
    for name, report in (("servo-grid", bench_outcome[0]), ("search-wide", wide)):
        emit_report(report, tmp_path / name)
        got[name] = {f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
                     for f in ("rows.csv", "summary.json")}
    assert got == json.loads(_REFERENCE.read_text())
