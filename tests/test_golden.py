"""Pinned output digests of two reduced benchmark grids, one reduced
collect + train run (ridge and MLP) and two `pegservo servo --trace` runs.

The rerun test in the acceptance gate only compares two runs of the same
code. These digests compare against checked-in bytes, so any numeric drift
in the world draws, the spiral search, the servo loop, the dataset and
model writers, the features or the ridge fit fails here. Update a digest only on purpose, with a CHANGES.md entry saying
why the bytes changed.
"""

import hashlib
import json

import pytest

from pegservo.bench import BenchConfig, emit_report, run_benchmark
from pegservo.cli import main
from pegservo.perception import (OracleModel, TrainConfig, save_dataset,
                                 save_model, train)
from pegservo.pipeline import (CollectionConfig, collect_dataset,
                               split_by_insertion)
from pegservo.search import generate_pattern
from pegservo.sim import WorldConfig, new_world

GRIDS = {
    # search only: 2 styles x 25 insertions over a 3 mm start-error disc
    "search": (BenchConfig(component_styles=("led", "dsub"),
                           insertions_per_style_per_mode=25,
                           error_disc_radius=3.0, modes=("novs",)),
               {}),
    # servo then search: 1 style x 5 insertions, noiseless oracle models
    "servo": (BenchConfig(component_styles=("cap_small",),
                          insertions_per_style_per_mode=5),
              {"cap_small": (OracleModel(), OracleModel())}),
}

GOLDEN = {
    ("search", "rows.csv"):
        "52488d5cef1542a134d1507754c4a899ed713531d00dc79902a7e0c2438d63a4",
    ("search", "summary.json"):
        "5e922151da5d952dbd43c90183e59f0c532b12080dcbfaa52173e5c7c975e887",
    ("servo", "rows.csv"):
        "bb695d6ea12c562c49129a702cf1013d611b357225e9282bf952b695b1161cd1",
    ("servo", "summary.json"):
        "e364a589ce813f686dfa00c612216b0e67c2ad5c854146591baa4be0e3dce2f3",
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_bench_outputs_match_golden_digests(grid, tmp_path):
    cfg, models = GRIDS[grid]
    emit_report(run_benchmark(cfg, models), tmp_path)
    for name in ("rows.csv", "summary.json"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == GOLDEN[(grid, name)], name


# 3 dsub insertions x 8 poses x 2 cameras; camera 1's ridge model with and
# without the robust per-image normalization, and one small MLP
DATASET_GOLDEN = {
    "meta.json":
        "7f78be08ea9759f9ac8ffa5b49003e7927066d4dc52c7971014ecae69240d4b2",
    "images.bin":
        "06aa8774c3cc0afe439d3031898bd8ff6df8d7a55d32e62507fd7dac56ea03f9",
}
MODEL_GOLDEN = {
    (True, "model.json"):
        "fa5ad9891434e9d250fe5b770a715515af0a6c6fa34b5eff65f16a588845b75e",
    (True, "weights.bin"):
        "f6a9b4b1f29c07020ca3598c8ee86029901d3575f4686b9dfa0995630790463b",
    (False, "model.json"):
        "7686fb1ee968bead2df7dbd865d49b50c8c95b5dac1ee9d6d5ba3189ef416c83",
    (False, "weights.bin"):
        "11715ecbf518252b5f47d32c572c8fec762c2700c35a33669e19f49951c3a2e0",
}
# camera 1's MLP, hidden (3,), stopped early after 14 epochs at epoch 10's
# parameters: pins the Adam steps, the patience count and the best snapshot
MLP = TrainConfig(kind="mlp", hidden=(3,), learning_rate=1e-2, batch_size=8,
                  max_epochs=40, patience=4)
MLP_GOLDEN = {
    "model.json":
        "8d9390751173d8d5e8fd0124bdd94694ec1d3bcff06467671d4b27b2f4027faf",
    "weights.bin":
        "845403debdf12dcc3af527d8fa44e44b6bc9eb8740736fa0ab4eae131edb0b2b",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dataset_and_model_files_match_golden_digests(tmp_path):
    def factory(i):
        return new_world(WorldConfig(component_style="dsub", seed=300 + i))

    cfg = CollectionConfig(n_insertions=3, samples_per_insertion=8,
                           train_insertions=2)
    data = collect_dataset(factory, cfg, generate_pattern(0.1, cfg.max_offset_mag))
    save_dataset(data, tmp_path / "ds")
    for name, digest in DATASET_GOLDEN.items():
        assert _sha(tmp_path / "ds" / name) == digest, name
    tr, va = split_by_insertion(data, cfg.train_insertions, 0)
    for robust in (True, False):
        model, _ = train(tr.by_camera(1), va.by_camera(1),
                         TrainConfig(kind="ridge", robust_norm=robust))
        save_model(model, tmp_path / f"m{robust}")
        for name in ("model.json", "weights.bin"):
            assert _sha(tmp_path / f"m{robust}" / name) == \
                MODEL_GOLDEN[(robust, name)], (robust, name)
    model, report = train(tr.by_camera(1), va.by_camera(1), MLP)
    assert (report.epochs_run, report.stopped_early) == (14, True)
    assert report.best_val_loss == report.val_curve[9]
    save_model(model, tmp_path / "mlp")
    for name, digest in MLP_GOLDEN.items():
        assert _sha(tmp_path / "mlp" / name) == digest, name


# `pegservo servo --trace` on a dsub scene with noiseless oracle models read
# from disk; a 3.5 mm start error saturates the first correction
SERVO_GOLDEN = {
    (0.7, "trace.csv"):
        "969ce84d937029d6df4408f5b2a5e246e7fa58bc3498f4c628fdc3835331ce43",
    (0.7, "result.json"):
        "45f94f40d3a909d8c03c5a72766202156be9423b7e09c14895a5621b2c89c713",
    (3.5, "trace.csv"):
        "bd3411ab700a06955c9d2a100072a22019b11b92fbe0ea5fff39f4b96fdcd77e",
    (3.5, "result.json"):
        "dab4a42adbde50c11e745436aa94209d1c841a9ee507827b05c540f47ffedba1",
}


@pytest.mark.parametrize("error", [0.7, 3.5])
def test_servo_trace_matches_golden_digests(error, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"world": {"component_style": "dsub", "seed": 5}}))
    for j in range(2):
        save_model(OracleModel(), tmp_path / "models" / f"cam{j}")
    out = tmp_path / "out"
    assert main(["servo", "--config", str(config), "--models",
                 str(tmp_path / "models"), "--error", str(error), "--trace",
                 "--out", str(out)]) == 0
    for name in ("trace.csv", "result.json"):
        assert _sha(out / name) == SERVO_GOLDEN[(error, name)], name
