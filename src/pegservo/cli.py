"""Command line front end.

Every subcommand checks its inputs, then writes a manifest.json into --out
before any work, echoing the resolved configuration; artifacts land next to
it. Domain errors exit 1 with the class name on stderr; usage errors exit 2.

PEGSERVO_OUT provides the default for --out; an explicit flag wins. No
other environment variable is consulted.
"""

import argparse
import datetime
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bench import (MODE_VS, BenchConfig, build_report, emit_report,
                    read_rows, run_benchmark)
from .errors import (CorruptArtifact, InvalidConfig, IoError, PegServoError,
                     write_artifact, write_artifacts)
from .perception import (TrainConfig, evaluate, load_dataset, load_model,
                         save_dataset, save_model)
from .pipeline import (CollectionConfig, DeploymentGate, collect_dataset,
                       configure, train_per_camera)
from .search import generate_pattern, write_pattern_csv
from .servoing import servo_config_for, visual_servo, write_trace_csv
from .sim import (COMPONENT_STYLES, TimingModel, WorldConfig,
                  config_from_dict, config_to_dict, keyed_generators, load_config_file,
                  move_tcp, new_world, new_worlds, peg_position, render_views,
                  true_inplane_error, write_pgm)

_SECTIONS = {"world": WorldConfig, "timing": TimingModel,
             "collection": CollectionConfig, "train": TrainConfig,
             "bench": BenchConfig, "gate": DeploymentGate}


def _load_sections(path) -> dict:
    """Every config section as its config object.

    An absent section takes its class defaults, except the gate, which is
    then None so that configure applies its default.
    """
    raw = {} if path is None else load_config_file(path)
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise InvalidConfig(f"unknown config sections: {sorted(unknown)}; "
                            f"expected a subset of {sorted(_SECTIONS)}")
    sections = {name: config_from_dict(cls, raw.get(name, {}))
                for name, cls in _SECTIONS.items() if name != "gate"}
    sections["gate"] = (config_from_dict(DeploymentGate, raw["gate"])
                        if "gate" in raw else None)
    return sections


def _world_config(sections, seed=None, style=None) -> WorldConfig:
    kw = {k: v for k, v in (("seed", seed), ("component_style", style)) if v is not None}
    return replace(sections["world"], **kw) if kw else sections["world"]


def _check_collection_reach(world: WorldConfig, ccfg: CollectionConfig) -> None:
    """The highest collection pose, max_height above the approach pose, is in
    front of every camera, as WorldConfig requires of the approach pose."""
    top = world.nominal_hole - (world.hover_height + ccfg.max_height) * world.insertion_direction
    if not world.sees(top):
        raise InvalidConfig(f"max_height {ccfg.max_height} puts the highest collection "
                            "pose behind a camera")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _write_json(path, obj) -> None:
    write_artifact(path, _json_text(obj))


def _write_manifest(out_dir, subcommand, ns, config_echo, outputs) -> None:
    args = {k: v for k, v in vars(ns).items() if k != "func"}
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "args": args,
        "config": config_echo,
        "outputs": sorted(outputs),
    }
    write_artifacts(out_dir, {"manifest.json": _json_text(manifest)})


def _load_models(models_dir) -> tuple:
    """The models in cam0 ... cam<n-1>, the subdirectories train writes; a gap
    in the indices raises CorruptArtifact naming the first missing one."""
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
    return tuple(load_model(os.path.join(models_dir, f"cam{j}"))
                 for j in range(len(names)))


def cmd_pattern(ns) -> int:
    echo = {"tolerance": ns.tolerance, "max_radius": ns.max_radius}
    pattern = generate_pattern(ns.tolerance, ns.max_radius)
    _write_manifest(ns.out, "pattern", ns, echo, ["pattern.csv"])
    write_pattern_csv(pattern, os.path.join(ns.out, "pattern.csv"))
    print(f"pattern: {len(pattern)} offsets, spacing {pattern.spacing:.6f} mm "
          f"-> {ns.out}/pattern.csv")
    return 0


def cmd_simulate(ns) -> int:
    sections = _load_sections(ns.config)
    wcfg = _world_config(sections, seed=ns.seed, style=ns.style)
    world = new_world(wcfg)
    outputs = [f"cam{j}.pgm" for j in range(len(wcfg.cameras))] + ["scene.json"]
    _write_manifest(ns.out, "simulate", ns, {"world": config_to_dict(wcfg)},
                    outputs)
    truth = {}
    for j in range(len(wcfg.cameras)):
        pixels, truth_y = render_views([world], j, world.tcp[None])
        write_pgm(pixels[0], os.path.join(ns.out, f"cam{j}.pgm"))
        truth[str(j)] = float(truth_y[0])
    scene = {
        "tcp": [float(v) for v in world.tcp],
        "true_inplane_error_mm": true_inplane_error(world),
        "truth_y": truth,
        "component_style": wcfg.component_style,
        "seed": wcfg.seed,
    }
    _write_json(os.path.join(ns.out, "scene.json"), scene)
    print(f"simulate: {len(wcfg.cameras)} views, true error "
          f"{scene['true_inplane_error_mm']:.4f} mm -> {ns.out}")
    return 0


def cmd_collect(ns) -> int:
    sections = _load_sections(ns.config)
    # the world echo shows the seed base, the seed of insertion 0
    ccfg, template = sections["collection"], _world_config(sections, seed=ns.seed)
    echo = {"world": config_to_dict(template),
            "collection": config_to_dict(ccfg), "seed_base": ns.seed}
    pattern = generate_pattern(template.tolerance, ccfg.max_offset_mag)
    _check_collection_reach(template, ccfg)
    worlds = new_worlds([template.with_seed(ns.seed + i) for i in range(ccfg.n_insertions)])
    _write_manifest(ns.out, "collect", ns, echo, ["dataset/meta.json",
                                                  "dataset/images.bin"])
    data = collect_dataset(worlds.__getitem__, ccfg, pattern)
    save_dataset(data, os.path.join(ns.out, "dataset"))
    print(f"collect: {len(data)} samples from {len(data.grouping)} insertions "
          f"-> {ns.out}/dataset")
    return 0


def cmd_train(ns) -> int:
    sections = _load_sections(ns.config)
    hyper, ccfg = sections["train"], sections["collection"]
    echo = {"train": config_to_dict(hyper),
            "train_insertions": ccfg.train_insertions}
    data = load_dataset(ns.data)
    n_cams = len(data.cameras)
    outputs = [f"models/cam{j}/model.json" for j in range(n_cams)] + ["report.json"]
    _write_manifest(ns.out, "train", ns, echo, outputs)
    fit = train_per_camera(data, ccfg.train_insertions, hyper)
    report = {"per_camera": {}, "train_ids": fit.train_ids,
              "val_ids": fit.val_ids}
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
    models = _load_models(ns.models)
    if len(models) != len(data.cameras):
        raise InvalidConfig(f"{len(models)} models for {len(data.cameras)} cameras")
    _write_manifest(ns.out, "evaluate", ns, {}, ["metrics.json"])
    metrics = {}
    for j, model in enumerate(models):
        metrics[str(j)] = evaluate(model, data.by_camera(j))
        print(f"evaluate: cam{j} mae {metrics[str(j)]['mae_mm']:.4f} mm "
              f"over {metrics[str(j)]['n']} samples")
    _write_json(os.path.join(ns.out, "metrics.json"), metrics)
    return 0


def cmd_servo(ns) -> int:
    sections = _load_sections(ns.config)
    wcfg = _world_config(sections, seed=ns.seed, style=ns.style)
    timing = sections["timing"]
    echo = {"world": config_to_dict(wcfg), "timing": config_to_dict(timing),
            "n_iters": ns.n_iters, "error": ns.error}
    if not 0 <= ns.error < np.inf:
        raise InvalidConfig(f"--error must be finite and >= 0, got {ns.error}")
    world = new_world(wcfg)
    cfg = servo_config_for(world, _load_models(ns.models), n_iters=ns.n_iters,
                           timing=timing)
    if ns.error:
        [ang_rng] = keyed_generators([[wcfg.seed, 99]])
        theta = ang_rng.uniform(0.0, 2.0 * np.pi)
        offset = ns.error * np.array([np.cos(theta), np.sin(theta)])
        move_tcp(world, world.tcp + world.basis @ offset)
        if not wcfg.sees(peg_position(world)):
            raise InvalidConfig(f"--error {ns.error} puts the start peg behind a camera")
    outputs = ["result.json"] + (["trace.csv"] if ns.trace else [])
    _write_manifest(ns.out, "servo", ns, echo, outputs)
    [(steps, residuals)] = visual_servo([world], [cfg])
    if ns.trace:
        write_trace_csv(steps, residuals, os.path.join(ns.out, "trace.csv"))
    result = {
        "residuals_mm": residuals,
        "final_error_mm": true_inplane_error(world),
        "elapsed_time_s": world.elapsed_time,
        "n_iters": ns.n_iters,
    }
    _write_json(os.path.join(ns.out, "result.json"), result)
    print(f"servo: residuals {['%.4f' % r for r in residuals]} mm, "
          f"time {world.elapsed_time:.3f} s")
    return 0


_BENCH_OUTPUTS = ["table.csv", "scatter.csv", "rows.csv", "summary.json",
                  "scatter.svg"]


def _bench_models(ns, cfg: BenchConfig, sections: dict) -> dict:
    """Per-style camera model tuples: loaded from disk or trained in place."""
    if MODE_VS not in cfg.modes:
        return {}
    if ns.models is not None:
        return {style: _load_models(os.path.join(ns.models, style))
                for style in cfg.component_styles}
    out = {}
    for style in cfg.component_styles:
        def factory(i, styled=replace(cfg.world_template, component_style=style)):
            return new_world(styled.with_seed(ns.train_seed + i))

        res = configure(factory, sections["collection"], sections["train"],
                        sections["gate"])
        maes = {j: res.metrics[j]["mae_mm"] for j in sorted(res.metrics)}
        print(f"bench: {style} {res.decision} "
              f"(val mae mm {[round(maes[j], 4) for j in sorted(maes)]})")
        out[style] = tuple(res.models[j] for j in sorted(res.models))
    return out


def cmd_bench(ns) -> int:
    if ns.train_seed < 0:
        raise InvalidConfig(f"--train-seed must be >= 0, got {ns.train_seed}")
    sections = _load_sections(ns.config)
    cfg = replace(sections["bench"], timing=sections["timing"],
                  world_template=sections["world"])
    echo = {"bench": config_to_dict(cfg), "timing": config_to_dict(cfg.timing),
            "world": config_to_dict(cfg.world_template)}
    generate_pattern(cfg.tolerance, cfg.error_disc_radius)  # memoized: fails before output
    if MODE_VS in cfg.modes and ns.models is None:
        generate_pattern(cfg.tolerance, sections["collection"].max_offset_mag)
        _check_collection_reach(cfg.world_template, sections["collection"])
    _write_manifest(ns.out, "bench", ns, echo, _BENCH_OUTPUTS)
    models = _bench_models(ns, cfg, sections)
    report = run_benchmark(cfg, models)
    emit_report(report, ns.out)
    print(f"bench: speedup {report.speedup:.2f}x, "
          f"success vs {report.success['vs']}/{report.success['vs_total']} "
          f"novs {report.success['novs']}/{report.success['novs_total']}, "
          f"direct {report.direct['vs']}, "
          f"mean post-servo error {report.mean_post_servo_retro_mm:.4f} mm "
          f"-> {ns.out}")
    return 0


def cmd_report(ns) -> int:
    rows = read_rows(ns.rows)
    _write_manifest(ns.out, "report", ns, {"rows": ns.rows}, _BENCH_OUTPUTS)
    report = build_report(rows)
    emit_report(report, ns.out)
    print(f"report: {len(rows)} rows, speedup {report.speedup:.2f}x -> {ns.out}")
    return 0


def _add_out(p, sub):
    p.add_argument("--out", default=os.environ.get("PEGSERVO_OUT",
                                                   os.path.join("runs", sub)),
                   help="output directory (env PEGSERVO_OUT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegservo",
        description="visual-servo peg insertion simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("pattern", help="write an isometric spiral search pattern")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--max-radius", type=float, default=1.0)
    _add_out(p, "pattern")
    p.set_defaults(func=cmd_pattern)

    p = subs.add_parser("simulate", help="render one hidden-state scene")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--style", choices=COMPONENT_STYLES, default=None)
    _add_out(p, "simulate")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("collect", help="autonomously collect a labeled dataset")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=1000,
                   help="world seed base; insertion i uses seed+i (the "
                        "config's world.seed is not used)")
    _add_out(p, "collect")
    p.set_defaults(func=cmd_collect)

    p = subs.add_parser("train", help="train per-camera error regressors")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config")
    _add_out(p, "train")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="evaluate saved models on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True)
    _add_out(p, "evaluate")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("servo", help="run the servo loop on a fresh scene")
    p.add_argument("--models", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None,
                   help="world seed (default: the config's world.seed)")
    p.add_argument("--style", choices=COMPONENT_STYLES, default=None)
    p.add_argument("--error", type=float, default=0.0,
                   help="extra in-plane start error magnitude (mm)")
    p.add_argument("--n-iters", type=int, default=3)
    p.add_argument("--trace", action="store_true",
                   help="write per-iteration trace.csv")
    _add_out(p, "servo")
    p.set_defaults(func=cmd_servo)

    p = subs.add_parser("bench", help="servo-vs-search benchmark grid")
    p.add_argument("--config", required=True)
    p.add_argument("--models", help="per-style model root; trains if omitted")
    p.add_argument("--train-seed", type=int, default=1000)
    _add_out(p, "bench")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("report", help="re-emit report artifacts from rows.csv")
    p.add_argument("--rows", required=True)
    _add_out(p, "report")
    p.set_defaults(func=cmd_report)

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
