"""Command line front end: each subcommand parses, then calls the library.

A subcommand that reads --config builds one bench.RunConfig from the file and
its flags, which checks every section and every rule across sections. Then it
writes manifest.json into --out, echoing the run's sections as a config of the
same run, calls the library and writes its artifacts next to it. The CLI
checks only what a flag alone means (--error, --train-seed) and the models it
loads. Domain errors exit 1 with the class name on stderr; usage errors exit 2.
PEGSERVO_OUT provides the default for --out (an explicit flag wins); no other
environment variable is read.
"""

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from .bench import (MODE_VS, RunConfig, build_report, emit_report, read_rows,
                    run_benchmark, train_styles)
from .errors import (CorruptArtifact, InvalidConfig, IoError, PegServoError,
                     write_artifact, write_artifacts)
from .perception import evaluate, load_dataset, load_model, save_dataset, save_model
from .pipeline import collect_dataset, train_per_camera
from .search import generate_pattern, write_pattern_csv
from .servoing import servo_config_for, visual_servo, write_trace_csv
from .sim import (COMPONENT_STYLES, load_config_file, move_tcp, new_world, new_worlds,
                  peg_position, render_views, true_inplane_errors, write_pgm)
from .streams import keyed_generators


def _run_config(ns, **world) -> RunConfig:
    """The run --config describes, its world's fields replaced by the flags given."""
    raw = {} if ns.config is None else load_config_file(ns.config)
    return RunConfig.from_dict(raw, **{k: v for k, v in world.items() if v is not None})


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _write_json(path, obj) -> None:
    write_artifact(path, _json_text(obj))


def _write_manifest(out_dir, subcommand, ns, run, outputs) -> None:
    """manifest.json: the flags, and the sections of the run (if any) for --config."""
    args = {k: v for k, v in vars(ns).items() if k != "func"}
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "args": args,
        "config": {} if run is None else run.to_dict(),
        "outputs": sorted(outputs),
    }
    write_artifacts(out_dir, {"manifest.json": _json_text(manifest)})


def _load_models(models_dir, n_cameras: int) -> tuple:
    """The models in cam0 ... cam<n-1>, the subdirectories train writes; a gap
    in the indices raises CorruptArtifact naming the first missing one, and a
    count other than n_cameras InvalidConfig."""
    try:
        names = {n for n in os.listdir(models_dir)
                 if n.startswith("cam") and n[3:].isdigit()}
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if not names:
        raise IoError(f"no cam*/ model directories under {models_dir}")
    for j in range(len(names)):
        if f"cam{j}" not in names:
            raise CorruptArtifact(f"{models_dir} holds {len(names)} cam*/ model "
                                  f"directories but no cam{j}")
    if len(names) != n_cameras:
        raise InvalidConfig(f"{len(names)} models for {n_cameras} cameras")
    return tuple(load_model(os.path.join(models_dir, f"cam{j}"))
                 for j in range(len(names)))


def cmd_pattern(ns) -> int:
    pattern = generate_pattern(ns.tolerance, ns.max_radius)
    _write_manifest(ns.out, "pattern", ns, None, ["pattern.csv"])
    write_pattern_csv(pattern, os.path.join(ns.out, "pattern.csv"))
    print(f"pattern: {len(pattern)} offsets, spacing {pattern.spacing:.6f} mm "
          f"-> {ns.out}/pattern.csv")
    return 0


def cmd_simulate(ns) -> int:
    run = _run_config(ns, seed=ns.seed, component_style=ns.style)
    wcfg = run.world
    world = new_world(wcfg)
    outputs = [f"cam{j}.pgm" for j in range(len(wcfg.cameras))] + ["scene.json"]
    _write_manifest(ns.out, "simulate", ns, run, outputs)
    [pixels], [truth_y] = render_views(world, world.tcp)
    for j, view in enumerate(pixels):
        write_pgm(view, os.path.join(ns.out, f"cam{j}.pgm"))
    scene = {
        "tcp": world.tcp[0].tolist(),
        "true_inplane_error_mm": float(true_inplane_errors(world)[0]),
        "truth_y": {str(j): t for j, t in enumerate(truth_y.tolist())},
        "component_style": wcfg.component_style,
        "seed": wcfg.seed,
    }
    _write_json(os.path.join(ns.out, "scene.json"), scene)
    print(f"simulate: {len(wcfg.cameras)} views, true error "
          f"{scene['true_inplane_error_mm']:.4f} mm -> {ns.out}")
    return 0


def cmd_collect(ns) -> int:
    run = _run_config(ns, seed=ns.seed)  # the world echo shows the seed base
    ccfg, n = run.collection, run.collection.n_insertions
    worlds = new_worlds(run.world, range(ns.seed, ns.seed + n))
    _write_manifest(ns.out, "collect", ns, run, ["dataset/meta.json", "dataset/images.bin"])
    data = collect_dataset(worlds.__getitem__, ccfg)
    save_dataset(data, os.path.join(ns.out, "dataset"))
    print(f"collect: {len(data)} samples from {len(data.grouping)} insertions "
          f"-> {ns.out}/dataset")
    return 0


def cmd_train(ns) -> int:
    run = _run_config(ns)
    data = load_dataset(ns.data)
    n_cams = len(data.cameras)
    outputs = [f"models/cam{j}/model.json" for j in range(n_cams)] + ["report.json"]
    _write_manifest(ns.out, "train", ns, run, outputs)
    fit = train_per_camera(data, run.collection.train_insertions, run.train)
    report = {"per_camera": {}, "train_ids": fit.train_ids, "val_ids": fit.val_ids}
    for j, model in fit.models.items():
        save_model(model, os.path.join(ns.out, "models", f"cam{j}"))
        tr, metrics = fit.reports[j], fit.metrics[j]
        report["per_camera"][str(j)] = {
            "epochs_run": tr.epochs_run, "best_val_loss": tr.best_val_loss,
            "stopped_early": tr.stopped_early, **metrics}
        print(f"train: cam{j} val mae {metrics['mae_mm']:.4f} mm "
              f"({tr.epochs_run} epochs)")
    _write_json(os.path.join(ns.out, "report.json"), report)
    return 0


def cmd_evaluate(ns) -> int:
    data = load_dataset(ns.data)
    models = _load_models(ns.models, len(data.cameras))
    _write_manifest(ns.out, "evaluate", ns, None, ["metrics.json"])
    metrics = {}
    for j, model in enumerate(models):
        metrics[str(j)] = evaluate(model, data.by_camera(j))
        print(f"evaluate: cam{j} mae {metrics[str(j)]['mae_mm']:.4f} mm "
              f"over {metrics[str(j)]['n']} samples")
    _write_json(os.path.join(ns.out, "metrics.json"), metrics)
    return 0


def cmd_servo(ns) -> int:
    run = _run_config(ns, seed=ns.seed, component_style=ns.style)
    wcfg, timing = run.world, run.timing
    if not 0 <= ns.error < np.inf:
        raise InvalidConfig(f"--error must be finite and >= 0, got {ns.error}")
    world = new_world(wcfg)
    models = _load_models(ns.models, len(wcfg.cameras))
    cfg = servo_config_for(world, models, n_iters=ns.n_iters, timing=timing)
    if ns.error:
        [ang_rng] = keyed_generators([[wcfg.seed, 99]])
        theta = ang_rng.uniform(0.0, 2.0 * np.pi)
        offset = ns.error * np.array([np.cos(theta), np.sin(theta)])
        move_tcp(world, world.tcp + world.basis @ offset)
        if not wcfg.sees(peg_position(world)):
            raise InvalidConfig(f"--error {ns.error} puts the start peg behind a camera")
    outputs = ["result.json"] + (["trace.csv"] if ns.trace else [])
    _write_manifest(ns.out, "servo", ns, run, outputs)
    steps, residuals = visual_servo(world, cfg)
    if ns.trace:
        write_trace_csv(steps, residuals, os.path.join(ns.out, "trace.csv"))
    result = {
        "residuals_mm": residuals[0].tolist(),
        "final_error_mm": float(true_inplane_errors(world)[0]),
        "elapsed_time_s": cfg.time_s,
        "n_iters": ns.n_iters,
    }
    _write_json(os.path.join(ns.out, "result.json"), result)
    print(f"servo: residuals {['%.4f' % r for r in residuals[0]]} mm, "
          f"time {cfg.time_s:.3f} s")
    return 0


_BENCH_OUTPUTS = ["table.csv", "scatter.csv", "rows.csv", "summary.json", "scatter.svg"]


def cmd_bench(ns) -> int:
    if ns.train_seed < 0:
        raise InvalidConfig(f"--train-seed must be >= 0, got {ns.train_seed}")
    run = _run_config(ns)
    servoed, models = MODE_VS in run.bench.modes, {}
    if servoed and ns.models is not None:  # a directory it cannot load writes nothing
        models = {style: _load_models(os.path.join(ns.models, style), len(run.world.cameras))
                  for style in run.bench.component_styles}
    _write_manifest(ns.out, "bench", ns, run, _BENCH_OUTPUTS)
    if servoed and ns.models is None:  # after the manifest: a failure in training leaves it
        for style, res in train_styles(run, ns.train_seed).items():
            maes = [round(res.metrics[j]["mae_mm"], 4) for j in sorted(res.metrics)]
            print(f"bench: {style} {res.decision} (val mae mm {maes})")
            models[style] = tuple(res.models[j] for j in sorted(res.models))
    report = run_benchmark(run.bench, models)
    emit_report(report, ns.out)
    print(f"bench: speedup {report.speedup:.2f}x, "
          f"success vs {report.success['vs']}/{report.success['vs_total']} "
          f"novs {report.success['novs']}/{report.success['novs_total']}, "
          f"direct {report.direct['vs']}, mean post-servo retrospective error "
          f"{report.mean_post_servo_retro_mm:.4f} mm -> {ns.out}")
    return 0


def cmd_report(ns) -> int:
    rows = read_rows(ns.rows)
    _write_manifest(ns.out, "report", ns, None, _BENCH_OUTPUTS)
    report = build_report(rows)
    emit_report(report, ns.out)
    print(f"report: {len(rows)} rows, speedup {report.speedup:.2f}x -> {ns.out}")
    return 0


def _subcommand(subs, name, func, description) -> argparse.ArgumentParser:
    """The subparser that runs func, with its --out option."""
    p = subs.add_parser(name, help=description)
    p.set_defaults(func=func)
    p.add_argument("--out", default=os.environ.get("PEGSERVO_OUT", os.path.join("runs", name)),
                   help="output directory (env PEGSERVO_OUT)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegservo", description="visual-servo peg insertion simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = _subcommand(subs, "pattern", cmd_pattern, "write an isometric spiral search pattern")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--max-radius", type=float, default=1.0)

    p = _subcommand(subs, "simulate", cmd_simulate, "render one hidden-state scene")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--style", choices=COMPONENT_STYLES, default=None)

    p = _subcommand(subs, "collect", cmd_collect, "autonomously collect a labeled dataset")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=1000,
                   help="world seed base; insertion i uses seed+i (the "
                        "config's world.seed is not used)")

    p = _subcommand(subs, "train", cmd_train, "train per-camera error regressors")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config")

    p = _subcommand(subs, "evaluate", cmd_evaluate, "evaluate saved models on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True)

    p = _subcommand(subs, "servo", cmd_servo, "run the servo loop on a fresh scene")
    p.add_argument("--models", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None,
                   help="world seed (default: the config's world.seed)")
    p.add_argument("--style", choices=COMPONENT_STYLES, default=None)
    p.add_argument("--error", type=float, default=0.0,
                   help="extra in-plane start error magnitude (mm)")
    p.add_argument("--n-iters", type=int, default=3)
    p.add_argument("--trace", action="store_true", help="write per-iteration trace.csv")

    p = _subcommand(subs, "bench", cmd_bench, "servo-vs-search benchmark grid")
    p.add_argument("--config", required=True)
    p.add_argument("--models", help="per-style model root; trains if omitted")
    p.add_argument("--train-seed", type=int, default=1000)

    p = _subcommand(subs, "report", cmd_report, "re-emit report artifacts from rows.csv")
    p.add_argument("--rows", required=True)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except PegServoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
