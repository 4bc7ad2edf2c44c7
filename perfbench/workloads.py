"""The three workloads of the wall-clock benchmark.

A workload prepares its inputs in `setup`, lists the operations of one
measured pass, and checks what each operation produced. Every operation runs
either untraced, through the same public call a user makes, or traced, with
spans around the finer public calls that make it up. `probe` times the inner
layers call by call on the workload's own inputs; the traced run multiplies
those per-call times by exact call counts taken from the pass's outputs.

The world/train seed and the bench seed are pinned, so every run does the
same work and produces the same bytes. The run seed only varies what cannot
change the measured outputs: the order of operations inside a pass, the
inputs of the warm-up, and which inputs the probes sample.
"""

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from pegservo import (COMPONENT_STYLES, BenchConfig, TrainConfig, WorldConfig,
                      collect_dataset, configure, emit_report, evaluate,
                      generate_pattern, insert, new_world, predict,
                      reconstruct_error, render, run_benchmark,
                      servo_config_for, servo_step, spiral_insert,
                      split_by_insertion, train)
from pegservo.bench import MODE_NOVS, MODE_VS, build_report
from pegservo.geometry import denormalize_error, error_direction
from pegservo.pipeline import CollectionConfig, DeploymentGate
from pegservo.sim import TimingModel, move_tcp

clock = time.perf_counter

WORLD_SEED = 1000  # `pegservo bench --train-seed` default
BENCH_SEED = 12  # BenchConfig default
RIDGE = TrainConfig(kind="ridge", robust_norm=True)
WIDE_DISC_MM = 3.0
# Warm-up worlds live far from the measured ones, so a cache keyed on world
# state cannot be filled in set-up for the measured inputs.
WARMUP_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Size:
    """How much work one pass does; `tiny` exists for the smoke test."""

    collection: CollectionConfig
    styles: tuple
    grid_insertions: int
    wide_insertions: int
    probe_episodes: int
    claims: bool  # check the paper's claims (deploy, >= 10x, quadratic law)


SIZES = {
    "full": Size(CollectionConfig(), COMPONENT_STYLES, 10, 300, 40, True),
    "tiny": Size(CollectionConfig(n_insertions=3, samples_per_insertion=6,
                                  train_insertions=2),
                 COMPONENT_STYLES[:2], 2, 3, 3, False),
}


@dataclass
class OpResult:
    """What one operation produced: artifact digests plus figures for metrics."""

    digests: dict
    info: dict = field(default_factory=dict)


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def model_digest(model) -> str:
    """sha256 of a ridge model's float64 arrays, in save_model's order."""
    return sha256_arrays(model.spec.feat_mean, model.spec.feat_std,
                         model.weights, [model.bias, model.lam])


def median_call(fn, calls):
    """Median wall seconds of fn(*args) over `calls`, and the results."""
    times, outs = [], []
    for args in calls:
        t0 = clock()
        outs.append(fn(*args))
        times.append(clock() - t0)
    return statistics.median(times), outs


def style_factory(style, base):
    def factory(i):
        return new_world(WorldConfig(component_style=style, seed=base + i))
    return factory


def gate_for(tolerance):
    """The CLI's default gate: half the insertion clearance."""
    return DeploymentGate(max_val_mae_mm=tolerance / 2.0)


class Configure:
    """pipeline.configure for every style: collect, split, fit, evaluate, gate."""

    def __init__(self, size, world_seed, run_seed):
        self.size = size
        self.world_seed = world_seed
        self.rng = np.random.default_rng(run_seed)
        self.warm_base = world_seed + WARMUP_SEED_STRIDE * (run_seed + 1)
        self.tolerance = WorldConfig().tolerance

    def setup(self):
        self.factories = {s: style_factory(s, self.world_seed)
                          for s in self.size.styles}
        warm = style_factory(self.size.styles[0], self.warm_base)
        configure(warm, self.size.collection, RIDGE, gate_for(self.tolerance))
        return {}

    def ops(self):
        return [(s, lambda tracer, s=s: self.fit(s, tracer))
                for s in self.rng.permutation(self.size.styles)]

    def fit(self, style, tracer):
        factory, cfg = self.factories[style], self.size.collection
        gate = gate_for(self.tolerance)
        if tracer is None:
            res = configure(factory, cfg, RIDGE, gate)
            models, metrics = res.models, res.metrics
            n_samples, decision = res.dataset_size, res.decision
            train_ids = res.train_ids
        else:
            models, metrics = {}, {}
            with tracer.span("pipeline.configure"):
                probe = factory(0)
                with tracer.span("search.generate_pattern"):
                    pattern = generate_pattern(probe.config.tolerance,
                                               cfg.max_offset_mag)
                with tracer.span("pipeline.collect_dataset"):
                    data = collect_dataset(factory, cfg, pattern)
                with tracer.span("pipeline.split_by_insertion"):
                    train_ds, val_ds = split_by_insertion(
                        data, cfg.train_insertions, RIDGE.seed)
                for j in range(len(data.cameras)):
                    tr, va = train_ds.by_camera(j), val_ds.by_camera(j)
                    with tracer.span("perception.train"):
                        models[j], _ = train(tr, va, RIDGE)
                    with tracer.span("perception.evaluate"):
                        metrics[j] = evaluate(models[j], va)
            ok = all(m["mae_mm"] <= gate.max_val_mae_mm for m in metrics.values())
            n_samples, decision = len(data), "deploy" if ok else "collect_more"
            train_ids = sorted(train_ds.grouping)
        return OpResult(
            digests={f"{style}/cam{j}": model_digest(models[j]) for j in sorted(models)},
            info={"decision": decision,
                  "val_mae_mm_max": max(m["mae_mm"] for m in metrics.values()),
                  "samples": n_samples,
                  "cameras": len(models),
                  "gram_order": cfg.samples_per_insertion * len(train_ids),
                  "finite": all(np.all(np.isfinite(m.weights)) for m in models.values())})

    def summarize(self, results):
        """Per-pass figures from one pass's operation results."""
        cfg = self.size.collection
        infos = [r.info for r in results.values()]
        per_insertion = cfg.samples_per_insertion
        inserted = sum(i["samples"] // (per_insertion * i["cameras"]) for i in infos)
        episodes = cfg.n_insertions * len(infos)
        spirals = self._collection_spirals()
        return {
            "episodes": episodes,
            "samples": sum(i["samples"] for i in infos),
            "insert_success_ratio": inserted / episodes,
            "val_mae_mm_max": max(i["val_mae_mm_max"] for i in infos),
            "deploy_ratio": sum(i["decision"] == "deploy" for i in infos) / len(infos),
            "counts": {
                "sim.render.calls": sum(i["samples"] for i in infos),
                "sim.new_world.calls": (cfg.n_insertions + 1) * len(infos),
                "search.generate_pattern.calls": len(infos),
                "sim.spiral_insert.calls": episodes,
                "sim.spiral_insert.attempts": sum(out.attempts for out, _ in spirals),
                "perception.train.calls": sum(i["cameras"] for i in infos),
                "perception.train.gram_order": max(i["gram_order"] for i in infos),
                "perception.predict.calls": 0,
                "servoing.servo_step.calls": 0,
                "geometry.reconstruct_error.calls": 0,
            },
        }

    def check(self, result):
        problems = []
        info = result.info
        if not info["finite"]:
            problems.append("non-finite model weights")
        if self.size.claims and info["decision"] != "deploy":
            problems.append(f"gate refused deployment (val mae "
                            f"{info['val_mae_mm_max']:.4f} mm)")
        return problems

    def _collection_spirals(self):
        """(outcome, seconds) of each collection insertion's spiral_insert.

        collect_dataset keeps no attempt counts, so its spirals are run again
        on fresh copies of the same worlds; they are deterministic.
        """
        cfg = self.size.collection
        pattern = generate_pattern(self.tolerance, cfg.max_offset_mag)
        out = []
        for s in self.size.styles:
            for i in range(cfg.n_insertions):
                w = self.factories[s](i)
                t0 = clock()
                outcome = spiral_insert(w, w.tcp, pattern, TimingModel())
                out.append((outcome, clock() - t0))
        return out

    def probe(self, summary, results):
        """Per-call timings of the layers under configure, on its own worlds."""
        cfg = self.size.collection
        styles = self.size.styles
        l = WorldConfig().insertion_direction
        worlds = [(s, i) for s in styles for i in range(cfg.n_insertions)]
        new_world_s, _ = median_call(lambda s, i: self.factories[s](i), worlds)
        pattern_s, _ = median_call(
            generate_pattern, [(self.tolerance, cfg.max_offset_mag)] * 20)
        spirals = self._collection_spirals()
        attempts = sum(out.attempts for out, _ in spirals)
        calls = []
        for k in self.rng.choice(len(worlds), size=min(len(worlds), self.size.probe_episodes),
                                 replace=False):
            s, i = worlds[k]
            w = self.factories[s](i)
            theta = self.rng.uniform(0.0, 2.0 * np.pi)
            mag = self.rng.uniform(0.0, cfg.max_offset_mag)
            tcp = (w.tcp + w.basis @ (mag * np.array([np.cos(theta), np.sin(theta)]))
                   - self.rng.uniform(0.0, cfg.max_height) * l)
            calls += [(w, j, tcp) for j in range(len(w.config.cameras))]
        render_s, _ = median_call(render, calls)
        return {
            "sim.new_world.us": new_world_s * 1e6,
            "search.generate_pattern.us": pattern_s * 1e6,
            "sim.spiral_insert.us_per_attempt": sum(dt for _, dt in spirals) / attempts * 1e6,
            "sim.spiral_insert.hit_ratio": sum(out.success for out, _ in spirals) / attempts,
            "sim.render.us": render_s * 1e6,
        }


class Grid:
    """bench.run_benchmark over the style grid, then emit_report."""

    def __init__(self, name, size, world_seed, bench_seed, run_seed, out_dir):
        self.name = name
        self.size = size
        self.world_seed = world_seed
        self.rng = np.random.default_rng(run_seed)
        self.out_dir = os.path.join(out_dir, name)
        servo = name == "servo-grid"
        self.cfg = BenchConfig(
            component_styles=size.styles,
            insertions_per_style_per_mode=(size.grid_insertions if servo
                                           else size.wide_insertions),
            error_disc_radius=1.0 if servo else WIDE_DISC_MM,
            seed=bench_seed,
            modes=(MODE_VS, MODE_NOVS) if servo else (MODE_NOVS,))
        self.warm_cfg = replace(self.cfg, insertions_per_style_per_mode=2,
                                seed=bench_seed + WARMUP_SEED_STRIDE * (run_seed + 1))

    def setup(self):
        """Deploy per-style models (servo mode only), then one warm-up pass.

        The models are trained from the configure workload's inputs, in an
        order drawn from the run seed; their digests are returned so repeated
        set-ups can be compared.
        """
        self.models, digests = {}, {}
        if MODE_VS in self.cfg.modes:
            ccfg = self.size.collection
            for style in self.rng.permutation(self.size.styles):
                res = configure(style_factory(style, self.world_seed), ccfg, RIDGE,
                                gate_for(self.cfg.tolerance))
                self.models[style] = tuple(res.models[j] for j in sorted(res.models))
                for j, m in enumerate(self.models[style]):
                    digests[f"{style}/cam{j}"] = model_digest(m)
        emit_report(run_benchmark(self.warm_cfg, self.models), self.out_dir)
        return digests

    def ops(self):
        return [("grid", self.run_pass)]

    def run_pass(self, tracer):
        if tracer is None:
            report = run_benchmark(self.cfg, self.models)
            emit_report(report, self.out_dir)
        else:
            with tracer.span("bench.run_benchmark"):
                report = run_benchmark(self.cfg, self.models)
            with tracer.span("bench.emit_report"):
                emit_report(report, self.out_dir)
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            law = json.load(fh)["quadratic_law"]
        files = ("rows.csv", "summary.json")
        return OpResult(
            digests={f: sha256_file(os.path.join(self.out_dir, f)) for f in files},
            info={"report": report,
                  "slope": None if law is None else law["slope"],
                  "written": all(os.path.isfile(os.path.join(self.out_dir, f))
                                 for f in ("table.csv", "scatter.csv", "scatter.svg"))})

    def summarize(self, results):
        info = results["grid"].info
        rows = info["report"].rows
        vs = [r for r in rows if r.mode == MODE_VS]
        steps = len(vs) * self.cfg.n_iters
        n_cams = len(self.cfg.world_template.cameras)
        return {
            "episodes": len(rows),
            "samples": 0,
            "insert_success_ratio": sum(r.success for r in rows) / len(rows),
            "sim_speedup": info["report"].speedup if vs else 0.0,
            "quad_law_slope_err": 0.0 if info["slope"] is None else abs(info["slope"] - 2.0),
            "counts": {
                "sim.render.calls": steps * n_cams,
                "sim.new_world.calls": len(rows),
                "search.generate_pattern.calls": len(rows),
                "sim.spiral_insert.calls": len(rows),
                "sim.spiral_insert.attempts": sum(r.attempts for r in rows),
                "perception.train.calls": 0,
                "perception.train.gram_order": 0,
                "perception.predict.calls": steps * n_cams,
                "servoing.servo_step.calls": steps,
                "geometry.reconstruct_error.calls": steps,
            },
        }

    def check(self, result):
        report = result.info["report"]
        rows = report.rows
        cfg = self.cfg
        problems = []
        expected = len(cfg.component_styles) * cfg.insertions_per_style_per_mode * len(cfg.modes)
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        if not result.info["written"]:
            problems.append("emit_report did not write every artifact")
        n_pattern = len(generate_pattern(cfg.tolerance, cfg.error_disc_radius))
        if any(not 1 <= r.attempts <= n_pattern for r in rows):
            problems.append("attempt count outside [1, pattern length]")
        by_episode = {}
        for r in rows:
            by_episode.setdefault((r.style, r.seed), set()).add(r.true_error_mm)
        if any(len(v) != 1 for v in by_episode.values()):
            problems.append("paired episodes do not share their start error")
        if not self.size.claims:
            return problems
        ok = report.success
        if MODE_VS in cfg.modes:
            if ok[MODE_VS] != ok[f"{MODE_VS}_total"]:
                problems.append(f"servo inserted {ok[MODE_VS]}/{ok[f'{MODE_VS}_total']}")
            if not report.speedup >= 10.0:
                problems.append(f"servo speed-up {report.speedup:.2f} < 10")
        if ok[MODE_NOVS] < 0.9 * ok[f"{MODE_NOVS}_total"]:
            problems.append(f"search inserted {ok[MODE_NOVS]}/{ok[f'{MODE_NOVS}_total']}")
        slope = result.info["slope"]
        if slope is None or not abs(slope - 2.0) <= 0.2:
            problems.append(f"search-time law slope {slope} is not 2 +/- 0.2")
        return problems

    def _episode_world(self, row):
        """A fresh world of this grid at a start error drawn from its disc."""
        wcfg = replace(self.cfg.world_template, component_style=row.style,
                       seed=row.seed, tolerance=self.cfg.tolerance)
        t0 = clock()
        world = new_world(wcfg)
        dt = clock() - t0
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        rad = self.cfg.error_disc_radius * math.sqrt(self.rng.uniform())
        move_tcp(world, world.tcp + world.basis @ (rad * np.array([np.cos(theta),
                                                                   np.sin(theta)])))
        return world, dt

    def probe(self, summary, results):
        """Per-call timings of the layers under run_benchmark, on its own episodes."""
        cfg = self.cfg
        rows = results["grid"].info["report"].rows
        pick = self.rng.choice(len(rows), size=min(len(rows), self.size.probe_episodes),
                               replace=False)
        sample = [rows[k] for k in sorted(pick)]
        pattern_s, patterns = median_call(
            generate_pattern, [(cfg.tolerance, cfg.error_disc_radius)] * 20)
        pattern = patterns[0]
        out = {"search.generate_pattern.us": pattern_s * 1e6}
        new_world_s, spiral_s, attempts, novs_s = [], 0.0, 0, []
        for row in sample:
            world, dt = self._episode_world(row)
            new_world_s.append(dt)
            t0 = clock()
            sp = spiral_insert(world, world.tcp, pattern, cfg.timing)
            spiral_s += clock() - t0
            attempts += sp.attempts
            world, _ = self._episode_world(row)
            t0 = clock()
            insert(world, "spiral_only", None, pattern, cfg.timing)
            novs_s.append(clock() - t0)
        out["sim.new_world.us"] = statistics.median(new_world_s) * 1e6
        out["sim.spiral_insert.us_per_attempt"] = spiral_s / attempts * 1e6
        out["pipeline.insert.novs_ms"] = statistics.median(novs_s) * 1e3
        if MODE_VS in cfg.modes:
            out.update(self._probe_servo(sample, pattern))
        build_s, _ = median_call(build_report, [(rows,)] * 5)
        out["bench.build_report.ms"] = build_s * 1e3
        out["sim.spiral_insert.hit_ratio"] = (
            sum(r.success for r in rows) / summary["counts"]["sim.spiral_insert.attempts"])
        return out

    def _probe_servo(self, sample, pattern):
        cfg = self.cfg
        l = cfg.world_template.insertion_direction
        render_s, predict_s, rec_s, step_s, vs_s = [], [], [], [], []
        for row in sample:
            models = self.models[row.style]
            world, _ = self._episode_world(row)
            servo_cfg = servo_config_for(world, models, n_iters=cfg.n_iters,
                                         timing=cfg.timing)
            dirs, qs = [], []
            for j, cam in enumerate(world.config.cameras):
                t0 = clock()
                obs = render(world, j)
                t1 = clock()
                y = predict(models[j], obs)
                predict_s.append(clock() - t1)
                render_s.append(t1 - t0)
                dirs.append(error_direction(l, world.nominal_hole - cam.position))
                qs.append(denormalize_error(y, cam))
            t0 = clock()
            reconstruct_error(dirs, qs)
            rec_s.append(clock() - t0)
            t0 = clock()
            servo_step(world, servo_cfg)
            step_s.append(clock() - t0)
            world, _ = self._episode_world(row)
            t0 = clock()
            insert(world, "servo_then_spiral", servo_cfg, pattern, cfg.timing)
            vs_s.append(clock() - t0)
        med = statistics.median
        return {"sim.render.us": med(render_s) * 1e6,
                "perception.predict.us": med(predict_s) * 1e6,
                "geometry.reconstruct_error.us": med(rec_s) * 1e6,
                "servoing.servo_step.us": med(step_s) * 1e6,
                "pipeline.insert.vs_ms": med(vs_s) * 1e3}

    def jobs2_speedup(self, repeats):
        """run_benchmark seconds at jobs=1 over jobs=2, alternating.

        Returns the ratio and whether every jobs=2 run gave the serial rows.
        """
        t1, t2, rows = [], [], set()
        for _ in range(repeats):
            for jobs, times in ((1, t1), (2, t2)):
                t0 = clock()
                report = run_benchmark(self.cfg, self.models, jobs=jobs)
                times.append(clock() - t0)
                rows.add(repr([tuple(vars(r).values()) for r in report.rows]))
        return statistics.median(t1) / statistics.median(t2), len(rows) == 1


def make(name, size_name, world_seed, bench_seed, run_seed, out_dir):
    size = SIZES[size_name]
    if name == "configure":
        return Configure(size, world_seed, run_seed)
    return Grid(name, size, world_seed, bench_seed, run_seed, out_dir)
