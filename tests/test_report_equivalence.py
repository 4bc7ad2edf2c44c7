"""build_report, table.csv and the rows' files against the per-aggregate and
row-at-a-time code they replaced."""

import json
import math
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegservo.bench import (_BLOCK, BenchReport, _speedup, build_report, emit_report,
                            fit_quadratic_law)
from pegservo.errors import InsufficientData, csv_text
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


def reference_svg(errors, times, modes) -> str:
    """The original scatter.svg, from lists: a per-point filter and loop, on the
    error axis that cannot overflow (the original's below ≈3e305 mm, bit for bit),
    which starts at 0 and so holds no negative error."""
    pts = [(e, math.log10(t), mode) for e, t, mode in zip(errors, times, modes)
           if 0 <= e < math.inf and 0 < t < math.inf]
    fill = {MODE_VS: "#1f6fb4", MODE_NOVS: "#d1495b"}
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="420" viewBox="0 0 640 420">', '<rect width="640" height="420" fill="white"/>']
    x0, x1, y0, y1 = 60, 620, 370, 20
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    if pts:
        emax = min(max(p[0] for p in pts) * 1.05, np.finfo(float).max) or 1.0
        b = max(math.frexp(emax)[1], 0)  # the axis over 2**b: exact
        lt_lo = math.floor(min(p[1] for p in pts))
        lt_hi = math.ceil(max(p[1] for p in pts))
        if lt_hi == lt_lo:
            lt_hi += 1

        def sx(e):
            return x0 + (x1 - x0) * math.ldexp(e, -b) / math.ldexp(emax, -b)

        def sy(lt):
            return y0 + (y1 - y0) * (lt - lt_lo) / (lt_hi - lt_lo)

        for k in range(5):
            e = emax * (k / 4.0)  # emax * k overflows at 1e308
            parts.append(f'<line x1="{sx(e):.2f}" y1="{y0}" x2="{sx(e):.2f}" '
                         f'y2="{y0 + 5}" stroke="black"/>')
            parts.append(f'<text x="{sx(e):.2f}" y="{y0 + 20}" font-size="12" '
                         f'text-anchor="middle">{e:{".2f" if abs(e) < 1e6 else ".3g"}}</text>')
        for d in range(lt_lo, lt_hi + 1):
            label = f"{float(f'1e{d}'):g}"
            parts.append(f'<line x1="{x0 - 5}" y1="{sy(d):.2f}" x2="{x0}" '
                         f'y2="{sy(d):.2f}" stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{sy(d):.2f}" font-size="12" '
                         f'text-anchor="end" dominant-baseline="middle">{label}</text>')
        for e, lt, mode in pts:
            parts.append(f'<circle cx="{sx(e):.2f}" cy="{sy(lt):.2f}" r="3.5" '
                         f'fill="{fill[mode]}" fill-opacity="0.75"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="408" font-size="13" '
                 f'text-anchor="middle">retrospective error (mm)</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(y0 + y1) / 2:.2f})">insertion time (s)</text>')
    for k, mode in enumerate(BENCH_MODES):
        ly = y1 + 14 + 18 * k
        parts.append(f'<circle cx="470" cy="{ly}" r="3.5" fill="{fill[mode]}"/>')
        label = "servo + search" if mode == MODE_VS else "search only"
        parts.append(f'<text x="480" y="{ly + 4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_row_files(rows) -> dict:
    """The original rows.csv, scatter.csv and scatter.svg, and the quadratic law's
    fit, from each column as a list and each row through csv_text."""
    col = {f.name: [getattr(row, f.name) for row in rows] for f in fields(Episode)}
    errors, times, modes = col["retrospective_error_mm"], col["time_s"], col["mode"]
    try:
        law = fit_quadratic_law([(e, t) for e, t, m, ok in zip(errors, times, modes, col["success"])
                                 if m == MODE_NOVS and ok and np.isfinite(e) and np.isfinite(t)
                                 and e > 0 and t > 0])
    except InsufficientData:
        law = None
    return {"rows.csv": csv_text(list(col), zip(*col.values())),
            "scatter.csv": csv_text(["error_mm", "time_s", "mode"], zip(errors, times, modes)),
            "scatter.svg": reference_svg(errors, times, modes), "law": law}


@st.composite
def wide_episode_lists(draw):
    """Up to 2 * _BLOCK + 1 rows, cycling a few Episodes of any floats, seeds and counts."""
    base = draw(st.lists(st.builds(
        Episode, style=st.sampled_from(COMPONENT_STYLES), mode=st.sampled_from(BENCH_MODES),
        seed=st.integers(0, 2**63 - 1), retrospective_error_mm=_times, true_error_mm=_times,
        time_s=_times, attempts=st.integers(1, 10**6), success=st.booleans(),
        post_servo_retrospective_error_mm=_times, direct=st.booleans()), min_size=1, max_size=5))
    return [base[k % len(base)] for k in range(draw(st.integers(0, 2 * _BLOCK + 1)))]


def _rows(*values, **column) -> list:
    """Episodes of one style and mode, a row per value of the named column."""
    [(name, values)] = column.items()
    base = Episode(style="led", mode=MODE_NOVS, seed=5, retrospective_error_mm=0.25,
                   true_error_mm=0.5, time_s=1.5, attempts=6, success=True,
                   post_servo_retrospective_error_mm=math.nan, direct=False)
    return [replace(base, **{name: v}) for v in values]


@settings(max_examples=60, deadline=None)
@given(rows=wide_episode_lists())
@example(rows=_rows(retrospective_error_mm=[0.25, 0.5, 0.25] * _BLOCK))  # repeated values
@example(rows=_rows(true_error_mm=[0.0, -0.0, 0.0, -0.0]))  # distinct bits, equal values
@example(rows=_rows(time_s=[math.nan, math.inf, -math.nan, -math.inf, math.nan, 2.0]))
@example(rows=_rows(seed=[2**63, 3, 2**64 - 1, 3]))  # past int64 mixed with small seeds
@example(rows=_rows(seed=[2**64 + 1, 2**63, 7, 2**64 + 1]))  # an object column
def test_the_column_writer_writes_the_row_writers_bytes(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("rows")
    with np.errstate(all="ignore"):  # means and scatter scales of inf and huge floats
        emit_report(build_report(rows), out)
        expected = reference_row_files(rows)
    assert json.loads((out / "summary.json").read_text())["quadratic_law"] == expected.pop("law")
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name
