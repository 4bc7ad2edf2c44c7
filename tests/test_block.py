"""A block of worlds is its rows: each batched call gives every row of a block what
the row gives as a block of one, and a block's rows joined back are the block."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.perception import OracleModel
from pegservo.pipeline import insert_batch
from pegservo.search import generate_pattern
from pegservo.servoing import ServoConfig, visual_servo
from pegservo.sim import (COMPONENT_STYLES, TimingModel, WorldConfig, Worlds, move_tcps,
                          new_worlds, render_views, spiral_search)

PATTERN, TIMING = generate_pattern(0.1, 1.0), TimingModel()
# each view keys its own oracle noise, so a servo is the same in any block
NOISY = (OracleModel(noise_sigma=0.01), OracleModel(noise_sigma=0.01))

rows = st.lists(st.fixed_dictionaries({
    "seed": st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63 - 1)),
    # up to past the pattern's reach: some searches fail
    "start_r": st.floats(0.0, 1.5),
    "start_theta": st.floats(0.0, 2.0 * math.pi),
    "servoed": st.booleans(),
}), min_size=1, max_size=6)


def _started(config, rows):
    """The config's block at the rows' seeds, each moved to its start offset."""
    block = new_worlds(config, [row["seed"] for row in rows])
    offsets = np.array([row["start_r"] * np.array([math.cos(row["start_theta"]),
                                                   math.sin(row["start_theta"])])
                        for row in rows])
    move_tcps(block, block.tcp + (block.basis @ offsets[:, :, None])[:, :, 0])
    return block


def _row_bytes(outputs, k):
    """Row k of each array of a call's outputs (a tuple of arrays or of tuples of arrays,
    or Episodes columns), as bytes."""
    if isinstance(outputs, dict):
        outputs = list(outputs.values())
    return [_row_bytes(out, k) if isinstance(out, (tuple, list)) else out[k].tobytes()
            for out in outputs]


def _block_state(block):
    return [getattr(block, name).tobytes() for name in (
        "seed", "true_hole", "grasp_offset", "tcp", "background", "hole_radius_px")]


@settings(max_examples=25, deadline=None)
@given(style=st.sampled_from(COMPONENT_STYLES), rows=rows, n_iters=st.integers(1, 2))
def test_a_block_gives_each_row_what_its_block_of_one_gives(style, rows, n_iters):
    config = WorldConfig(component_style=style)
    servo_cfg = ServoConfig(NOISY, config, n_iters=n_iters)
    calls = {
        "spiral_search": lambda b, rs: spiral_search(b, PATTERN, TIMING).columns,
        "render_views": lambda b, rs: render_views(b, b.tcp),
        "visual_servo": lambda b, rs: visual_servo(b, servo_cfg),
        "insert_batch": lambda b, rs: insert_batch(
            b, servo_cfg, [row["servoed"] for row in rs], PATTERN, TIMING).columns,
    }
    for name, call in calls.items():
        block = _started(config, rows)
        outputs = call(block, rows)
        for k in range(len(rows)):
            alone = _started(config, rows[k:k + 1])
            assert _row_bytes(outputs, k) == _row_bytes(call(alone, rows[k:k + 1]), 0), name
            assert block.tcp[k].tobytes() == alone.tcp.tobytes(), name


@settings(max_examples=50, deadline=None)
@given(style=st.sampled_from(COMPONENT_STYLES), rows=rows, data=st.data())
def test_a_blocks_rows_joined_back_are_the_block(style, rows, data):
    block = _started(WorldConfig(component_style=style), rows)
    cut = data.draw(st.integers(0, len(rows)))
    for parts in ([block[:cut], block[cut:]], [block[k] for k in range(len(rows))]):
        joined = Worlds.join(parts)
        assert joined.config is block.config and joined.basis is block.basis
        assert _block_state(joined) == _block_state(block)
    picked = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    mask = np.array(picked, dtype=bool)
    assert _block_state(Worlds.join([block[mask], block[~mask]])) == _block_state(
        block[np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])])
    # a selection is a copy: moving it leaves the block where it was
    before = block.tcp.copy()
    part = block[mask]
    part.tcp += 1.0
    assert block.tcp.tobytes() == before.tobytes()
