"""Pinned output digests of two reduced benchmark grids.

The rerun test in the acceptance gate only compares two runs of the same
code. These digests compare against checked-in bytes, so any numeric drift
in the world draws, the spiral search, the servo loop or the report writers
fails here. Update a digest only on purpose, with a CHANGES.md entry saying
why the bytes changed.
"""

import hashlib

import pytest

from pegservo.bench import BenchConfig, emit_report, run_benchmark
from pegservo.perception import OracleModel

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
