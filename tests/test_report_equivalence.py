"""build_report and table.csv against the per-aggregate code they replaced."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pegservo.bench import BenchReport, _speedup, build_report, emit_report
from pegservo.sim import BENCH_MODES, COMPONENT_STYLES, MODE_NOVS, MODE_VS, Episode, Episodes


def _fmt(v) -> str:
    """The original table.csv field text, kept as the reference's own."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def reference_report(rows) -> BenchReport:
    """The original aggregation: one filter of all rows per style and mode,
    and again per mode for the overall means, the counts and the speedup."""
    rows = list(rows)

    def times(sel_rows):
        return [r.time_s for r in sel_rows]

    per_style = {}
    for style in sorted({r.style for r in rows}):
        entry = {}
        for mode in BENCH_MODES:
            sel = [r for r in rows if r.style == style and r.mode == mode]
            if sel:
                entry[f"{mode}_mean_time_s"] = float(np.mean(times(sel)))
        per_style[style] = entry
    overall = {}
    for mode in BENCH_MODES:
        sel = [r for r in rows if r.mode == mode]
        if sel:
            overall[f"{mode}_mean_time_s"] = float(np.mean(times(sel)))
    if f"{MODE_VS}_mean_time_s" in overall and f"{MODE_NOVS}_mean_time_s" in overall \
            and overall[f"{MODE_VS}_mean_time_s"] > 0:
        speedup = overall[f"{MODE_NOVS}_mean_time_s"] / overall[f"{MODE_VS}_mean_time_s"]
    else:
        speedup = float("nan")
    success = {}
    direct = {}
    for mode in BENCH_MODES:
        sel = [r for r in rows if r.mode == mode]
        success[mode] = sum(r.success for r in sel)
        success[f"{mode}_total"] = len(sel)
        direct[mode] = sum(r.direct for r in sel)
    post = [r.post_servo_retrospective_error_mm for r in rows
            if r.mode == MODE_VS and r.success]
    mean_post = float(np.mean(post)) if post else float("nan")
    return BenchReport(rows=rows, per_style=per_style, overall=overall,
                       speedup=float(speedup), success=success, direct=direct,
                       mean_post_servo_retro_mm=mean_post)


def reference_table(report: BenchReport) -> list:
    """The original table.csv lines: a style row's speedup was nan unless
    both means were truthy; the average row took report.speedup."""
    styles = sorted(report.per_style)
    lines = ["style,vs_time_s,novs_time_s,speedup"]
    for style in styles:
        e = report.per_style[style]
        vs = e.get("vs_mean_time_s")
        novs = e.get("novs_mean_time_s")
        sp = novs / vs if vs and novs else float("nan")
        lines.append(f"{style},{_fmt(vs) if vs is not None else ''},"
                     f"{_fmt(novs) if novs is not None else ''},"
                     f"{_fmt(sp)}")
    if styles:
        vs = report.overall.get("vs_mean_time_s")
        novs = report.overall.get("novs_mean_time_s")
        lines.append(f"average,{_fmt(vs) if vs is not None else ''},"
                     f"{_fmt(novs) if novs is not None else ''},"
                     f"{_fmt(report.speedup)}")
    return lines


_times = st.one_of(st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf, -math.inf]),
                   st.floats(-10.0, 10.0), st.floats())


@st.composite
def episode_lists(draw):
    """Episodes of a random subset of styles and modes, with any time_s."""
    styles = draw(st.lists(st.sampled_from(COMPONENT_STYLES), min_size=1, unique=True))
    modes = draw(st.lists(st.sampled_from(BENCH_MODES), min_size=1, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        mode, success = draw(st.sampled_from(modes)), draw(st.booleans())
        direct = success and draw(st.booleans())
        rows.append(Episode(
            style=draw(st.sampled_from(styles)), mode=mode, seed=0,
            retrospective_error_mm=0.5 if success else math.nan, true_error_mm=0.5,
            time_s=draw(_times), attempts=1 if direct else 2, success=success,
            post_servo_retrospective_error_mm=(draw(_times) if success and mode == MODE_VS
                                               else math.nan),
            direct=direct))
    return rows


@settings(max_examples=80, deadline=None)
@given(rows=episode_lists())
def test_report_matches_the_reference(tmp_path_factory, rows):
    with np.errstate(over="ignore", invalid="ignore"):  # means of inf and huge floats
        report, expected = build_report(rows), reference_report(rows)
        out = tmp_path_factory.mktemp("report")
        emit_report(report, out)
        # the batch form, as a caller re-aggregating a report's rows passes them
        batched, batched_out = build_report(Episodes.of(rows)), tmp_path_factory.mktemp("batch")
        emit_report(batched, batched_out)
    assert repr(report) == repr(expected) == repr(batched)
    names = sorted(f.name for f in out.iterdir())
    assert names == sorted(f.name for f in batched_out.iterdir())
    assert all((out / n).read_bytes() == (batched_out / n).read_bytes() for n in names)
    table = (out / "table.csv").read_text().splitlines()
    ref_table = reference_table(expected)
    assert len(table) == len(ref_table) and table[0] == ref_table[0]
    for line, ref_line in zip(table[1:], ref_table[1:]):
        name = line.split(",")[0]
        e = report.overall if name == "average" else report.per_style[name]
        vs, novs = e.get(f"{MODE_VS}_mean_time_s"), e.get(f"{MODE_NOVS}_mean_time_s")
        if vs is not None and novs is not None and (novs == 0 or vs < 0):
            # where the old style-row rule differed from summary.json's
            assert line == ref_line.rsplit(",", 1)[0] + "," + _fmt(_speedup(vs, novs))
        else:
            assert line == ref_line
