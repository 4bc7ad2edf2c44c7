"""End-to-end CLI behavior: exit codes, manifests, artifact round-trips."""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import re
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pegservo
from pegservo.bench import RunConfig
from pegservo.cli import _BENCH_OUTPUTS, _write_json, main
from pegservo.errors import IoError, PegServoError
from pegservo.perception import (OracleModel, load_dataset, save_dataset,
                                 save_model)
from pegservo.sim import new_worlds

_STYLE = "led"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = {
        "world": {"component_style": _STYLE, "seed": 7},
        "collection": {"n_insertions": 4, "samples_per_insertion": 30,
                       "train_insertions": 3},
        "train": {"kind": "ridge", "robust_norm": True},
        "bench": {"component_styles": [_STYLE],
                  "insertions_per_style_per_mode": 2,
                  "modes": ["novs"], "seed": 3},
    }
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory, config_path):
    """collect -> train -> evaluate -> servo, sharing one dataset."""
    root = tmp_path_factory.mktemp("chain")
    d = {k: str(root / k) for k in ("collect", "train", "evaluate", "servo")}
    assert main(["collect", "--config", config_path, "--out", d["collect"]]) == 0
    data = f"{d['collect']}/dataset"
    assert main(["train", "--config", config_path, "--data", data,
                 "--out", d["train"]]) == 0
    models = f"{d['train']}/models"
    assert main(["evaluate", "--data", data, "--models", models,
                 "--out", d["evaluate"]]) == 0
    assert main(["servo", "--config", config_path, "--models", models,
                 "--error", "1.0", "--trace", "--out", d["servo"]]) == 0
    return d, data, models


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert pegservo.__version__ in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate"])
    assert exc.value.code == 2


def test_bench_requires_config():
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2


def test_pattern_csv_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "pat")
    assert main(["pattern", "--tolerance", "0.1", "--max-radius", "1.0",
                 "--out", out]) == 0
    assert "pattern: 151 offsets" in capsys.readouterr().out
    lines = (tmp_path / "pat" / "pattern.csv").read_text().splitlines()
    assert len(lines) == 1 + 151
    manifest = json.loads((tmp_path / "pat" / "manifest.json").read_text())
    assert manifest["subcommand"] == "pattern"
    assert manifest["version"] == pegservo.__version__
    assert manifest["args"]["tolerance"] == 0.1
    assert manifest["outputs"] == ["pattern.csv"]
    assert "timestamp" in manifest and "config" in manifest


def test_out_env_default_and_flag_priority(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("PEGSERVO_OUT", str(envdir))
    assert main(["pattern", "--tolerance", "0.2"]) == 0
    assert (envdir / "pattern.csv").exists()
    flagdir = tmp_path / "from_flag"
    assert main(["pattern", "--tolerance", "0.2", "--out", str(flagdir)]) == 0
    assert (flagdir / "pattern.csv").exists()


def test_domain_error_exits_1_with_class_name(tmp_path, capsys):
    rc = main(["evaluate", "--data", str(tmp_path / "no_ds"),
               "--models", str(tmp_path / "no_models"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("IoError:")


def test_unknown_config_section_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": {}}))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("InvalidConfig:")


def test_manifest_lands_before_the_work(tmp_path, capsys):
    # a failure only the work can find: holes drawn with a 5 mm sigma lie
    # beyond every 0.1 mm spiral
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "world": {"hole_uncertainty_sigma": 5.0},
        "collection": {"n_insertions": 2, "samples_per_insertion": 1,
                       "train_insertions": 1, "max_offset_mag": 0.1}}))
    out = tmp_path / "collect_fail"
    rc = main(["collect", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("AllInsertionsFailed:")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "collect"
    assert not (out / "dataset").exists()


def test_simulate_outputs(tmp_path, config_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config_path, "--seed", "11",
                 "--out", str(out)]) == 0
    for j in (0, 1):
        head = (out / f"cam{j}.pgm").read_bytes()[:15]
        assert head.startswith(b"P5\n64 64\n255\n")
    scene = json.loads((out / "scene.json").read_text())
    assert scene["component_style"] == _STYLE
    assert scene["seed"] == 11
    assert set(scene["truth_y"]) == {"0", "1"}
    assert scene["true_inplane_error_mm"] >= 0.0
    assert len(scene["tcp"]) == 3


def test_collect_then_train_artifacts(pipeline_dirs):
    d, data, models = pipeline_dirs
    meta = json.loads(open(f"{data}/meta.json").read())
    assert meta["n"] == 4 * 30 * 2  # poses x cameras
    report = json.loads(open(f"{d['train']}/report.json").read())
    assert set(report["per_camera"]) == {"0", "1"}
    assert len(report["train_ids"]) == 3 and len(report["val_ids"]) == 1
    for cam in report["per_camera"].values():
        assert cam["epochs_run"] >= 1
        assert cam["mae_mm"] < 0.5


def test_evaluate_metrics(pipeline_dirs):
    d, _, _ = pipeline_dirs
    metrics = json.loads(open(f"{d['evaluate']}/metrics.json").read())
    assert set(metrics) == {"0", "1"}
    for m in metrics.values():
        assert m["n"] == 4 * 30
        assert m["mae_mm"] < 0.5


def test_servo_result_and_trace(pipeline_dirs):
    d, _, _ = pipeline_dirs
    result = json.loads(open(f"{d['servo']}/result.json").read())
    assert len(result["residuals_mm"]) == 3
    assert result["elapsed_time_s"] == pytest.approx(1.299, abs=1e-9)
    assert result["final_error_mm"] == result["residuals_mm"][-1]
    trace = open(f"{d['servo']}/trace.csv").read().splitlines()
    assert trace[0].startswith("iteration,y_0,q_mm_0,y_1,q_mm_1,e_hat_x")
    assert len(trace) == 1 + 3


def test_servo_with_too_few_models_exits_1(pipeline_dirs, tmp_path, capsys,
                                           config_path):
    _, _, models = pipeline_dirs
    shutil.copytree(f"{models}/cam0", tmp_path / "models" / "cam0")
    assert main(["servo", "--config", config_path, "--models",
                 str(tmp_path / "models"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig: 1 models for 2 cameras")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "result.json").exists()


def test_servo_with_a_gap_in_the_model_dirs_exits_1(pipeline_dirs, tmp_path,
                                                    capsys, config_path):
    # cam2's model must not stand in for camera 1
    _, _, models = pipeline_dirs
    shutil.copytree(f"{models}/cam0", tmp_path / "models" / "cam0")
    shutil.copytree(f"{models}/cam1", tmp_path / "models" / "cam2")
    assert main(["servo", "--config", config_path, "--models",
                 str(tmp_path / "models"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("CorruptArtifact: ") and "but no cam1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "result.json").exists()


def test_evaluate_with_too_few_models_exits_1(pipeline_dirs, tmp_path, capsys):
    _, data, models = pipeline_dirs
    shutil.copytree(f"{models}/cam0", tmp_path / "models" / "cam0")
    assert main(["evaluate", "--data", data, "--models", str(tmp_path / "models"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig: 1 models for 2 cameras")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_on_a_nan_pixel_exits_1(pipeline_dirs, tmp_path, capsys,
                                     config_path):
    _, data, _ = pipeline_dirs
    ds = load_dataset(data)
    images = ds.images.copy()
    images[0, 3, 4] = np.nan
    save_dataset(replace(ds, images=images), tmp_path / "nan")
    assert main(["train", "--config", config_path, "--data",
                 str(tmp_path / "nan"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NonFiniteLoss: no ridge step")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_servo_seed_defaults_to_the_config_world_seed(pipeline_dirs, tmp_path,
                                                     config_path):
    d, _, models = pipeline_dirs  # d["servo"] ran without --seed
    out = tmp_path / "seed7"
    assert main(["servo", "--config", config_path, "--models", models,
                 "--error", "1.0", "--seed", "7", "--out", str(out)]) == 0
    assert (out / "result.json").read_bytes() == \
        open(f"{d['servo']}/result.json", "rb").read()
    manifest = json.loads(open(f"{d['servo']}/manifest.json").read())
    assert manifest["args"]["seed"] is None
    assert manifest["config"]["world"]["seed"] == 7


def test_collect_manifest_echoes_the_seed_base(pipeline_dirs):
    d, _, _ = pipeline_dirs  # config world.seed 7, default --seed 1000
    manifest = json.loads(open(f"{d['collect']}/manifest.json").read())
    assert manifest["args"]["seed"] == 1000
    assert manifest["config"]["world"]["seed"] == 1000


def test_a_manifest_config_reruns_as_the_same_run(pipeline_dirs, tmp_path, config_path):
    # each subcommand that reads --config echoes its whole run: the manifest's
    # sections, read back by RunConfig, are the same run
    d, _, _ = pipeline_dirs
    dirs = {**d, "simulate": str(tmp_path / "simulate"), "bench": str(tmp_path / "bench")}
    assert main(["simulate", "--config", config_path, "--seed", "3", "--style", "dsub",
                 "--out", dirs["simulate"]]) == 0
    assert main(["bench", "--config", config_path, "--out", dirs["bench"]]) == 0
    for sub in ("simulate", "collect", "train", "servo", "bench"):
        echo = json.loads(pathlib.Path(dirs[sub], "manifest.json").read_text())["config"]
        assert sorted(echo) == ["bench", "collection", "timing", "train", "world"], sub
        again = RunConfig.from_dict(echo).to_dict()
        assert json.loads(json.dumps(again)) == echo, sub
    simulated = json.loads(pathlib.Path(dirs["simulate"], "manifest.json").read_text())
    assert simulated["config"]["world"]["seed"] == 3
    assert simulated["config"]["world"]["component_style"] == "dsub"


def test_noisy_oracles_run_from_disk(pipeline_dirs, tmp_path, config_path):
    # a noisy oracle's noise is keyed by each view it sees, so servo,
    # evaluate and bench --models repeat their bytes
    _, data, _ = pipeline_dirs
    for j in range(2):
        save_model(OracleModel(noise_sigma=0.05), tmp_path / "models" / _STYLE / f"cam{j}")
    models = str(tmp_path / "models" / _STYLE)
    bench_cfg = tmp_path / "bench.json"
    bench_cfg.write_text(json.dumps({"bench": {
        "component_styles": [_STYLE], "insertions_per_style_per_mode": 2}}))
    outs = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["servo", "--config", config_path, "--models", models,
                     "--error", "1.0", "--out", str(out / "servo")]) == 0
        assert main(["evaluate", "--data", data, "--models", models,
                     "--out", str(out / "evaluate")]) == 0
        assert main(["bench", "--config", str(bench_cfg), "--models",
                     str(tmp_path / "models"), "--out", str(out / "bench")]) == 0
        outs[run] = [(out / sub / name).read_bytes() for sub, name in
                     (("servo", "result.json"), ("evaluate", "metrics.json"),
                      ("bench", "rows.csv"))]
    assert outs["a"] == outs["b"]
    for j in range(2):  # the noise was drawn: a noiseless oracle scores otherwise
        save_model(OracleModel(), tmp_path / "exact" / f"cam{j}")
    assert main(["evaluate", "--data", data, "--models", str(tmp_path / "exact"),
                 "--out", str(tmp_path / "exact-eval")]) == 0
    assert (tmp_path / "exact-eval" / "metrics.json").read_bytes() != outs["a"][1]


def test_bench_then_report_roundtrip(tmp_path, config_path, capsys):
    b1, b2 = tmp_path / "bench", tmp_path / "rebuilt"
    assert main(["bench", "--config", config_path, "--out", str(b1)]) == 0
    assert "bench: speedup" in capsys.readouterr().out
    assert main(["report", "--rows", str(b1 / "rows.csv"),
                 "--out", str(b2)]) == 0
    for name in ("table.csv", "scatter.csv", "rows.csv", "summary.json",
                 "scatter.svg"):
        assert (b1 / name).read_bytes() == (b2 / name).read_bytes(), name
    rows = (b1 / "rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # one style, two insertions, novs only
    assert all(",novs," in ln for ln in rows[1:])


def test_bench_ignores_pegservo_jobs(tmp_path, monkeypatch, config_path):
    monkeypatch.setenv("PEGSERVO_JOBS", "abc")
    assert main(["bench", "--config", config_path, "--out", str(tmp_path / "b")]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "jobs" not in manifest["args"]


def test_bench_has_no_jobs_option(tmp_path, config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", config_path, "--jobs", "2",
              "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_json_writer_wraps_os_errors(tmp_path):
    path = tmp_path / "r.json"
    _write_json(path, {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n "a": [\n  0.5\n ],\n "b": 1\n}\n'
    with pytest.raises(IoError):
        _write_json(tmp_path / "missing" / "r.json", {})


_ROWS_HEADER = ("style,mode,seed,retrospective_error_mm,true_error_mm,time_s,"
                "attempts,success,post_servo_retrospective_error_mm,direct")
_ROW = "led,novs,5,0.25,0.3,2.5,10,1,nan,0"


@pytest.mark.parametrize("config, rows, error", [
    ({"gate": {"max_val_mae": 0.05}}, None, "InvalidConfig:"),
    ({"train": 5}, None, "InvalidConfig:"),
    ({"timing": {"t_attempt": "fast"}}, None, "InvalidConfig:"),
    ({"world": {"cameras": [{"f": 900}]}}, None, "InvalidConfig:"),
    ({"bench": {"timing": {"t_attempt": 0.3}}}, None, "InvalidConfig:"),
    ({"bench": {"tolerance": 0.2}}, None, "InvalidConfig:"),
    ({"bench": {"error_disc_radius": math.nan}}, None, "InvalidConfig:"),
    ({"timing": {"t_attempt": -1}}, None, "InvalidConfig:"),
    ([1, 2], None, "InvalidConfig:"),
    ({"world": {"extra_error_radius": 1.0}}, None, "InvalidConfig:"),
    ({"train": {"kind": "mlp", "hidden": [-1]}}, None, "InvalidConfig:"),
    ({"train": {"kind": "mlp", "hidden": [12.5]}}, None, "InvalidConfig:"),
    ({"train": {"kind": "mlp", "hidden": [0]}}, None, "InvalidConfig:"),
    ({"train": {"ridge_lambda": -1.0}}, None, "InvalidConfig:"),
    (None, [_ROWS_HEADER, _ROW.replace("0.3", "abc")], "CorruptArtifact:"),
    (None, [_ROWS_HEADER.replace("seed", "world_seed"), _ROW], "CorruptArtifact:"),
    (None, [_ROWS_HEADER, _ROW + ",1"], "CorruptArtifact:"),
    (None, [_ROWS_HEADER, _ROW.replace("novs", "both")], "CorruptArtifact:"),
    (None, [_ROWS_HEADER, "led,vs,5,nan,0.3,2.5,7,0,nan,1"], "CorruptArtifact:"),
    (None, [_ROWS_HEADER, _ROW.replace(",5,", ",-5,"),
            _ROW.replace(",5,", f",{2**64 - 1},")], "CorruptArtifact:"),
], ids=["gate-key", "train-not-object", "timing-string", "camera-no-position",
        "bench-timing", "bench-tolerance", "bench-disc-nan", "timing-negative", "config-not-object",
        "world-extra-error-radius", "train-hidden-negative",
        "train-hidden-float", "train-hidden-zero", "train-lambda-negative",
        "rows-float",
        "rows-header", "rows-field-count", "rows-mode", "rows-direct-failure",
        "rows-seed-negative"])
def test_bad_input_exits_1_with_typed_error(tmp_path, capsys, config, rows, error):
    if rows is None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["bench", "--config", str(path)]
    else:
        path = tmp_path / "rows.csv"
        path.write_text("\n".join(rows) + "\n")
        argv = ["report", "--rows", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    # rejected while reading the input, before any work or output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, error", [
    (["pattern", "--tolerance", "inf"], None, "InvalidTolerance:"),
    (["pattern", "--max-radius", "nan"], None, "InvalidRadius:"),
    (["pattern", "--max-radius", "inf"], None, "InvalidRadius:"),
    (["collect"], {"collection": {"max_offset_mag": math.inf}}, "InvalidRadius:"),
    (["bench"], {"world": {"tolerance": math.inf}}, "InvalidTolerance:"),
], ids=["pattern-tolerance-inf", "pattern-radius-nan", "pattern-radius-inf",
        "collect-offset-inf", "bench-tolerance-inf"])
def test_non_finite_pattern_input_exits_1_with_typed_error(tmp_path, capsys, argv,
                                                           config, error):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err


@pytest.mark.parametrize("argv, config", [
    (["simulate", "--seed", "-1"], None),
    (["simulate"], {"world": {"seed": -1}}),
    (["servo", "--models", "absent", "--seed", "-1"], None),
    (["collect", "--seed", "-1"], None),
    (["bench", "--train-seed", "-1"], {}),
    (["bench"], {"bench": {"seed": -1}}),
], ids=["simulate-seed", "world-seed", "servo-seed", "collect-seed-base",
        "bench-train-seed", "bench-seed"])
def test_negative_seed_exits_1_before_any_output(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig:") and "seed" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# one world key per example, set to a boundary value (a position's first
# component, the insertion direction's last)
_PROBE_KEYS = {**dict.fromkeys(["tolerance", "hole_uncertainty_sigma",
                                "grasp_uncertainty_sigma", "hover_height",
                                "peg_intensity", "seed"], lambda v: v),
               "nominal_hole": lambda v: [v, 0.0, 0.0],
               "insertion_direction": lambda v: [0.0, 0.0, v]}


_PROBE_VALUES = st.sampled_from([0, -1, math.nan, math.inf, -math.inf, 1e-300, 1e300, "x"])


def _probe(subcommand, config, check_outputs):
    """Run the subcommand on the config through cli.main: either exit 0 and
    check_outputs(out) holds, or exit 1 with "ErrorClass: message", no
    traceback and no manifest.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp) / "config.json", pathlib.Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(path), "--out", str(out)])
        if code == 0:
            check_outputs(out)
        else:
            assert code == 1
            assert re.match(r"[A-Za-z]+: ", err.getvalue()), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not (out / "manifest.json").exists()


def _finite_scene(out):
    scene = json.loads((out / "scene.json").read_text())
    numbers = [*scene["tcp"], scene["true_inplane_error_mm"], scene["seed"],
               *scene["truth_y"].values()]
    assert all(math.isfinite(v) for v in numbers), scene


def _finite_dataset(out):
    data = load_dataset(out / "dataset")
    assert len(data) > 0
    for values in (data.images, data.y, data.truth_y, data.q_mm, data.height_mm):
        assert np.isfinite(values).all()


@settings(max_examples=50, deadline=None)
@given(key=st.sampled_from(sorted(_PROBE_KEYS)), value=_PROBE_VALUES)
def test_simulate_runs_or_fails_typed_before_any_output(key, value):
    _probe("simulate", {"world": {key: _PROBE_KEYS[key](value)}}, _finite_scene)


_COLLECTION_KEYS = ["max_height", "max_offset_mag", "n_insertions",
                    "samples_per_insertion", "train_insertions"]


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(sorted(_PROBE_KEYS) + [f"collection.{k}" for k in _COLLECTION_KEYS]),
       value=_PROBE_VALUES)
def test_collect_runs_or_fails_typed_before_any_output(key, value):
    # tiny counts, unless the drawn key is one of them
    config = {"world": {}, "collection": {"n_insertions": 2, "samples_per_insertion": 1,
                                          "train_insertions": 1}}
    if key.startswith("collection."):
        config["collection"][key.split(".")[1]] = value
    else:
        config["world"][key] = _PROBE_KEYS[key](value)
    _probe("collect", config, _finite_dataset)


# (argv, config, error) of runs that cannot run: the CLI refuses each before any
# output, and the library each that the config or a seeded draw alone decides
_CANNOT_RUN = [
    (["simulate"], {"world": {"hover_height": 800.0}}, "InvalidConfig:"),
    (["collect"], {"world": {"hover_height": 800.0}}, "InvalidConfig:"),
    (["simulate"], {"world": {"hover_height": 1e300}}, "InvalidConfig:"),
    (["simulate"], {"world": {"hole_uncertainty_sigma": 1e300}}, "InvalidConfig:"),
    (["collect"], {"world": {"grasp_uncertainty_sigma": 1e300}}, "InvalidConfig:"),
    (["collect"], {"world": {"tolerance": 1e-300}}, "InvalidTolerance:"),
    (["bench"], {"world": {"tolerance": 1e-300}}, "InvalidTolerance:"),
    (["pattern", "--tolerance", "1e-300"], None, "InvalidTolerance:"),
    (["collect"], {"world": {"tolerance": 1e300}}, "InvalidConfig: tolerance"),
    (["bench"], {"world": {"tolerance": 1e300}}, "InvalidConfig: tolerance"),
    (["pattern", "--tolerance", "1e300"], None, "InvalidTolerance:"),
    (["collect"], {"collection": {"max_height": 800.0}}, "InvalidConfig: max_height"),
    (["collect"], {"collection": {"max_height": 1e300}}, "InvalidConfig: max_height"),
    (["bench"], {"collection": {"max_height": 800.0}}, "InvalidConfig: max_height"),
    (["bench"], {"bench": {"n_iters": 0}}, "InvalidConfig:"),
    (["simulate"], {"world": {"nominal_hole": [1e300, 0.0, 0.0]}}, "InvalidConfig: nominal_hole"),
    (["collect"], {"world": {"nominal_hole": [1e300, 0.0, 0.0]}}, "InvalidConfig: nominal_hole"),
    # a 450 mm grasp sigma draws seed 4's peg behind a camera
    (["simulate", "--seed", "4"], {"world": {"grasp_uncertainty_sigma": 450}},
     "InvalidConfig: seed 4 puts the peg behind a camera"),
    # servo names the seed's draw with no --error, and --error for the start
    # peg that only its 1000 mm move puts behind a camera
    (["servo", "--seed", "4"], {"world": {"grasp_uncertainty_sigma": 450}},
     "InvalidConfig: seed 4 puts the peg behind a camera"),
    (["servo", "--seed", "0", "--error", "1000"], {"world": {"grasp_uncertainty_sigma": 450}},
     "InvalidConfig: --error 1000.0 puts the start peg behind a camera"),
    # collect builds every world before its manifest: seed 3 draws its hole behind a camera
    (["collect", "--seed", "3"],
     {"world": {"hole_uncertainty_sigma": 450},
      "collection": {"n_insertions": 2, "samples_per_insertion": 1, "train_insertions": 1}},
     "InvalidConfig: seed 3 draws the hole behind a camera"),
    # a repeated mode or style once ran its rows twice
    (["bench"], {"bench": {"modes": ["novs", "novs"], "component_styles": [_STYLE],
                           "insertions_per_style_per_mode": 2}},
     "InvalidConfig: modes must be distinct"),
    (["bench"], {"bench": {"modes": ["novs"], "component_styles": [_STYLE, _STYLE],
                           "insertions_per_style_per_mode": 2}},
     "InvalidConfig: component_styles must be distinct"),
    # a vs grid whose disc puts a servoed peg behind a camera once ran until
    # its first such render raised BehindCamera
    (["bench"], {"world": {"tolerance": 2.0},
                 "bench": {"error_disc_radius": 900, "component_styles": [_STYLE],
                           "insertions_per_style_per_mode": 60, "modes": ["vs"]}},
     "InvalidConfig: error_disc_radius 900.0 puts a servoed peg behind a camera"),
]
_CANNOT_RUN_IDS = [
    "simulate-hover-800", "collect-hover-800", "simulate-hover-1e300",
    "simulate-hole-sigma-1e300", "collect-grasp-sigma-1e300",
    "collect-tolerance-1e-300", "bench-tolerance-1e-300", "pattern-tolerance-1e-300",
    "collect-tolerance-1e300", "bench-tolerance-1e300", "pattern-tolerance-1e300",
    "collect-max-height-800", "collect-max-height-1e300", "bench-max-height-800",
    "bench-n-iters-0", "simulate-nominal-hole-1e300", "collect-nominal-hole-1e300",
    "simulate-peg-drawn-behind-a-camera", "servo-peg-drawn-behind-a-camera",
    "servo-error-moves-the-peg-behind-a-camera", "collect-hole-drawn-behind-a-camera",
    "bench-mode-repeated", "bench-style-repeated", "bench-disc-puts-a-servoed-peg-behind-a-camera"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, config, error", _CANNOT_RUN, ids=_CANNOT_RUN_IDS)
def test_config_that_cannot_run_exits_1_before_any_output(tmp_path, capsys, argv,
                                                         config, error):
    # each of these once wrote manifest.json and then failed mid-run (or, for
    # a tolerance of 1e300, overflowed)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    if argv[0] == "servo":
        for j in range(2):
            save_model(OracleModel(), tmp_path / "models" / f"cam{j}")
        argv = argv + ["--models", str(tmp_path / "models")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the cases a config or a seeded draw decides: not a pattern's or --error's flags
_LIBRARY_CASES = [(case, name) for case, name in zip(_CANNOT_RUN, _CANNOT_RUN_IDS)
                  if case[1] is not None and "--error" not in case[0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, config, error", [case for case, _ in _LIBRARY_CASES],
                         ids=[name for _, name in _LIBRARY_CASES])
def test_the_library_refuses_what_the_cli_refuses(argv, config, error):
    # the CLI adds no rule: RunConfig raises each config-only case's class and
    # message, and for a seeded draw the config passes and new_worlds raises
    if "--seed" in argv:
        seed = int(argv[argv.index("--seed") + 1])
        run = RunConfig.from_dict(config, seed=seed)
        n = run.collection.n_insertions if argv[0] == "collect" else 1
        with pytest.raises(PegServoError) as exc:
            new_worlds(run.world, [seed + i for i in range(n)])
    else:
        with pytest.raises(PegServoError) as exc:
            RunConfig.from_dict(config)
    assert f"{type(exc.value).__name__}: {exc.value}".startswith(error)


@pytest.mark.parametrize("bench, models", [({"modes": ["novs"]}, False), ({}, True)],
                         ids=["novs-only", "models-from-disk"])
def test_bench_that_trains_nothing_still_refuses_an_unreachable_collection(
        tmp_path, capsys, bench, models):
    # every rule holds for every subcommand: bench once ran these, since
    # neither trains in place
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"collection": {"max_height": 800.0},
                                "bench": {"component_styles": [_STYLE],
                                          "insertions_per_style_per_mode": 2, **bench}}))
    for j in range(2):
        save_model(OracleModel(), tmp_path / "models" / _STYLE / f"cam{j}")
    flags = ["--models", str(tmp_path / "models")] if models else []
    assert main(["bench", "--config", str(path), *flags, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig: max_height 800.0 puts the highest collection pose")
    assert not (tmp_path / "out").exists()


def test_a_world_whose_moves_round_out_of_plane_exits_1_before_any_output(tmp_path, capsys):
    # 3e7 mm out on a 0.5 rad tilt, a spiral's in-plane moves round up to 1.3e-9 mm
    # out of plane: bench once wrote manifest.json, then raised ConstraintViolation
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "world": {"nominal_hole": [3e7, 0.0, 0.0],
                  "insertion_direction": [math.sin(0.5), 0.0, -math.cos(0.5)]},
        "bench": {"modes": ["novs"], "component_styles": [_STYLE],
                  "insertions_per_style_per_mode": 10}}))
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig: nominal_hole [30000000.0, 0.0, 0.0] is too far out")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, error", [
    (["--n-iters", "0"], "InvalidConfig: n_iters"),
    (["--error", "nan"], "InvalidConfig: --error"),
    (["--error", "inf"], "InvalidConfig: --error"),
    (["--error", "-1"], "InvalidConfig: --error"),
    (["--models", "absent"], "IoError:"),  # the later --models wins
], ids=["n-iters-0", "error-nan", "error-inf", "error-negative", "models-missing"])
def test_bad_servo_flag_exits_1_before_any_output(tmp_path, capsys, flags, error):
    for j in range(2):
        save_model(OracleModel(), tmp_path / "models" / f"cam{j}")
    assert main(["servo", "--models", str(tmp_path / "models"), *flags,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("present, error", [
    ([], "IoError:"),
    (["cam0", "cam2"], "CorruptArtifact:"),
    (["cam0"], "InvalidConfig: 1 models for 2 cameras"),
], ids=["models-missing", "style-without-cam1", "style-with-one-camera"])
def test_bench_models_it_cannot_load_exit_1_before_any_output(tmp_path, capsys, config_path,
                                                             present, error):
    # bench once wrote manifest.json before it loaded --models
    cfg = json.loads(pathlib.Path(config_path).read_text())
    cfg["bench"]["modes"] = ["vs"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    for name in present:
        save_model(OracleModel(), tmp_path / "models" / _STYLE / name)
    assert main(["bench", "--config", str(path), "--models", str(tmp_path / "models"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [["--error", "1e300"], ["--error", "1000", "--seed", "0"]],
                         ids=["error-1e300", "error-1000-toward-camera-1"])
def test_servo_start_behind_a_camera_exits_1_before_any_output(tmp_path, capsys, flags):
    # seed 0 draws a start direction toward camera 1: 1000 mm puts the peg past it
    for j in range(2):
        save_model(OracleModel(), tmp_path / "models" / f"cam{j}")
    assert main(["servo", "--models", str(tmp_path / "models"), *flags,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidConfig: --error") and "behind a camera" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_a_hole_drawn_behind_a_camera_exits_1_before_any_output(tmp_path, capsys):
    # a 450 mm hole sigma draws seed 3's hole behind camera 0 and seed 6's
    # behind camera 1; the other eight seeds run, and their bytes are pinned
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"world": {"hole_uncertainty_sigma": 450}}))
    for j in range(2):
        save_model(OracleModel(), tmp_path / "models" / f"cam{j}")
    written = hashlib.sha256()
    drawn = {3: [918.414, -1150.049], 6: [473.902, 799.421]}  # new_world's offsets (mm)
    for seed in range(10):
        for sub, flags in (("simulate", []),
                           ("servo", ["--models", str(tmp_path / "models"), "--trace"])):
            out = tmp_path / f"{sub}{seed}"
            code = main([sub, "--config", str(path), "--seed", str(seed), *flags,
                         "--out", str(out)])
            err = capsys.readouterr().err
            if seed in drawn:
                assert code == 1 and not out.exists()
                assert err == (f"InvalidConfig: seed {seed} draws the hole behind a camera "
                               f"(drawn offset {drawn[seed]} mm)\n")
            else:
                assert code == 0, err
                for f in sorted(out.iterdir()):
                    if f.name != "manifest.json":
                        written.update(f.read_bytes())
    assert written.hexdigest() == (
        "7965a41cd4213ae096f39f6fd0df0712380d0074bb7249610092c82a8477a9f8")


def test_bench_from_disk_writes_what_training_in_place_writes(tmp_path, pipeline_dirs,
                                                              config_path):
    # collect -> train -> bench --models deploys the very models that the
    # in-place bench trains, validates and deploys: the same five files
    models = pipeline_dirs[2]
    cfg = json.loads(pathlib.Path(config_path).read_text())
    cfg["bench"]["modes"] = ["vs"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    shutil.copytree(models, tmp_path / "root" / _STYLE)
    for out, flags in (("disk", ["--models", str(tmp_path / "root")]), ("memory", [])):
        assert main(["bench", "--config", str(path), *flags,
                     "--out", str(tmp_path / out)]) == 0
    assert [name for name in _BENCH_OUTPUTS if (tmp_path / "disk" / name).read_bytes()
             != (tmp_path / "memory" / name).read_bytes()] == []


def test_bench_vs_trains_in_place_with_the_default_gate(tmp_path, capsys):
    cfg = {"world": {"tolerance": 0.5},
           "collection": {"n_insertions": 3, "samples_per_insertion": 20,
                          "train_insertions": 2},
           "bench": {"component_styles": [_STYLE], "modes": ["vs"],
                     "insertions_per_style_per_mode": 1}}
    outs = {}
    for name, gate in [("default", None), ("half", 0.25), ("zero", 0.0)]:
        if gate is not None:
            cfg["gate"] = {"max_val_mae_mm": gate}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        outs[name] = capsys.readouterr().out.splitlines()[0]
        rows = (out / "rows.csv").read_text().splitlines()
        assert len(rows) == 2 and ",vs," in rows[1]
    # no gate section means half the world tolerance, the grid's one clearance
    assert outs["default"] == outs["half"]
    assert outs["default"].startswith(f"bench: {_STYLE} deploy ")
    assert outs["zero"].startswith(f"bench: {_STYLE} collect_more ")


@pytest.mark.parametrize("sub", ["pattern", "simulate", "collect", "train",
                                 "evaluate", "servo", "bench", "report"])
def test_out_below_a_regular_file_exits_1(sub, tmp_path, capsys, pipeline_dirs,
                                          config_path):
    _, data, models = pipeline_dirs
    rows = tmp_path / "rows.csv"
    rows.write_text(f"{_ROWS_HEADER}\n{_ROW}\n")
    inputs = {"pattern": [], "simulate": [], "collect": [],
              "train": ["--data", data], "evaluate": ["--data", data, "--models", models],
              "servo": ["--models", models], "bench": ["--config", config_path],
              "report": ["--rows", str(rows)]}
    (tmp_path / "file").write_text("x")
    blocked = str(tmp_path / "file" / "out")
    assert main([sub, *inputs[sub], "--out", blocked]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IoError:") and "Traceback" not in err
    assert str(tmp_path / "file") in err


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b'{"world": {"component_style": "\xff"}}')
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("CorruptArtifact:") and "Traceback" not in err
