"""Insertion benchmark: servo-then-search vs search-only.

Runs paired episodes (same hidden world, same start error) in both modes
across component styles, and reports mean times, speedup, success and
centering statistics, plus the quadratic search-time law fit. Emits CSV,
JSON and an SVG scatter with a log time axis.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (CorruptArtifact, InsufficientData, InvalidConfig,
                     ModelsNotDeployed, read_artifact, write_artifacts)
from .pipeline import insert
from .search import generate_pattern
from .servoing import servo_config_for
from .sim import (BENCH_MODES, COMPONENT_STYLES, MODE_NOVS, MODE_VS, Episode,
                  TimingModel, WorldConfig, move_tcp, new_world)


@dataclass(frozen=True)
class BenchConfig:
    component_styles: tuple = COMPONENT_STYLES
    insertions_per_style_per_mode: int = 10
    error_disc_radius: float = 1.0
    tolerance: float = 0.1
    n_iters: int = 3
    seed: int = 12
    timing: TimingModel = field(default_factory=TimingModel)
    world_template: WorldConfig = None
    modes: tuple = BENCH_MODES

    def __post_init__(self):
        if self.insertions_per_style_per_mode < 1:
            raise InvalidConfig("insertions_per_style_per_mode must be >= 1")
        if self.error_disc_radius < 0:
            raise InvalidConfig("error_disc_radius must be >= 0")
        unknown = [s for s in self.component_styles if s not in COMPONENT_STYLES]
        if unknown:
            raise InvalidConfig(f"unknown styles: {unknown}")
        bad_modes = [m for m in self.modes if m not in BENCH_MODES]
        if bad_modes:
            raise InvalidConfig(f"unknown modes: {bad_modes}; expected {BENCH_MODES}")
        if self.world_template is None:
            object.__setattr__(self, "world_template", WorldConfig())


def _row_seed(base: int, style_index: int, insertion: int) -> int:
    ss = np.random.SeedSequence([base, style_index, insertion])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _run_episode(cfg: BenchConfig, models_for_style, style: str,
                 style_index: int, insertion: int, mode: str) -> Episode:
    wseed = _row_seed(cfg.seed, style_index, insertion)
    wcfg = replace(cfg.world_template, component_style=style, seed=wseed,
                   tolerance=cfg.tolerance)
    world = new_world(wcfg)
    err_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, style_index, insertion, 7]))
    theta = err_rng.uniform(0.0, 2.0 * np.pi)
    rad = cfg.error_disc_radius * math.sqrt(err_rng.uniform())
    extra = rad * np.array([np.cos(theta), np.sin(theta)])
    move_tcp(world, world.tcp + world.basis @ extra)
    pattern = generate_pattern(cfg.tolerance, cfg.error_disc_radius)
    if mode == MODE_VS:
        servo_cfg = servo_config_for(world, models_for_style,
                                     n_iters=cfg.n_iters, timing=cfg.timing)
        return insert(world, "servo_then_spiral", servo_cfg, pattern, cfg.timing)
    return insert(world, "spiral_only", None, pattern, cfg.timing)


def _episode_args(cfg: BenchConfig, models: dict):
    for si, style in enumerate(cfg.component_styles):
        for i in range(cfg.insertions_per_style_per_mode):
            for mode in cfg.modes:
                ms = models.get(style) if mode == MODE_VS else None
                yield (cfg, ms, style, si, i, mode)


def _run_star(args):
    return _run_episode(*args)


@dataclass
class BenchReport:
    rows: list
    per_style: dict
    overall: dict
    speedup: float
    success: dict
    direct: dict
    mean_post_servo_retro_mm: float


def build_report(rows) -> BenchReport:
    """Deterministic ordered aggregation of benchmark rows."""
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


def run_benchmark(cfg: BenchConfig, models: dict, jobs: int = 1) -> BenchReport:
    """Run the full style x insertion x mode grid.

    models maps style -> sequence of per-camera models; required for every
    style when the vs mode is enabled. Paired episodes share the hidden
    world and start error across modes. jobs > 1 distributes episodes over
    processes; results are identical to the serial run.
    """
    if MODE_VS in cfg.modes:
        missing = [s for s in cfg.component_styles
                   if not models or s not in models or models[s] is None]
        if missing:
            raise ModelsNotDeployed(f"no deployed models for styles: {missing}")
    args = list(_episode_args(cfg, models or {}))
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_star, args, chunksize=4))
    else:
        rows = [_run_star(a) for a in args]
    return build_report(rows)


def fit_quadratic_law(rows) -> dict:
    """Log-log line fit of search time vs retrospective error.

    rows: Episodes, of which failed ones are skipped, or (error_mm, time_s)
    pairs. Only entries whose error and time are both finite and > 0 are
    used. Requires >= 10 of them spanning at least a 3x error range.
    """
    pts = []
    for r in rows:
        if hasattr(r, "retrospective_error_mm"):
            if not r.success:
                continue
            e, t = r.retrospective_error_mm, r.time_s
        else:
            e, t = r
        if np.isfinite(e) and np.isfinite(t) and e > 0 and t > 0:
            pts.append((float(e), float(t)))
    if len(pts) < 10:
        raise InsufficientData(f"need >= 10 usable rows, got {len(pts)}")
    errs = np.array([p[0] for p in pts])
    ts = np.array([p[1] for p in pts])
    if errs.max() / errs.min() < 3.0:
        raise InsufficientData("errors must span at least a 3x range")
    slope, intercept = np.polyfit(np.log(errs), np.log(ts), 1)
    pred = slope * np.log(errs) + intercept
    ss_res = float(np.sum((np.log(ts) - pred) ** 2))
    ss_tot = float(np.sum((np.log(ts) - np.mean(np.log(ts))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r2": float(r2), "n": len(pts)}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


# rows.csv holds one Episode per line, its fields in declaration order.
_ROW_COLUMNS = [f.name for f in fields(Episode)]
_PARSE = {str: str, int: int, float: float,
          bool: lambda v: {"0": False, "1": True}[v]}


def read_rows(path) -> list:
    """The Episodes of a rows.csv that emit_report wrote; a row that does not
    parse or contradicts itself raises CorruptArtifact naming its line."""
    lines = read_artifact(path).splitlines()
    if not lines or lines[0] != ",".join(_ROW_COLUMNS):
        raise CorruptArtifact(f"{path}: header is not {','.join(_ROW_COLUMNS)}")
    parse = [_PARSE[f.type] for f in fields(Episode)]
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            row = Episode(*[p(v) for p, v in zip(parse, line.split(","),
                                                  strict=True)])
        except (KeyError, ValueError) as exc:
            raise CorruptArtifact(f"{path} line {n}: {exc!r}") from exc
        if row.mode not in BENCH_MODES:
            raise CorruptArtifact(f"{path} line {n}: unknown mode {row.mode!r}")
        failed = not row.success
        if (row.attempts < 1 or row.direct != (row.success and row.attempts == 1)
                or math.isnan(row.retrospective_error_mm) != failed
                or math.isnan(row.post_servo_retrospective_error_mm)
                != (failed or row.mode == MODE_NOVS)):
            raise CorruptArtifact(f"{path} line {n}: contradictory episode {line}")
        rows.append(row)
    return rows


def emit_report(report: BenchReport, out_dir) -> list:
    """Write table.csv, scatter.csv, rows.csv, summary.json, scatter.svg."""
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
    files = {"table.csv": "\n".join(lines) + "\n"}

    lines = ["error_mm,time_s,mode"]
    for r in report.rows:
        lines.append(f"{_fmt(r.retrospective_error_mm)},{_fmt(r.time_s)},{r.mode}")
    files["scatter.csv"] = "\n".join(lines) + "\n"

    lines = [",".join(_ROW_COLUMNS)]
    for r in report.rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in _ROW_COLUMNS))
    files["rows.csv"] = "\n".join(lines) + "\n"

    summary = {
        "per_style": report.per_style,
        "overall": report.overall,
        "speedup": report.speedup,
        "success": report.success,
        "direct": report.direct,
        "mean_post_servo_retro_mm": report.mean_post_servo_retro_mm,
        "n_rows": len(report.rows),
    }
    try:
        summary["quadratic_law"] = fit_quadratic_law(
            [r for r in report.rows if r.mode == MODE_NOVS])
    except InsufficientData:
        summary["quadratic_law"] = None
    files["summary.json"] = json.dumps(summary, indent=1, sort_keys=True)
    files["scatter.svg"] = _scatter_svg(report)
    return write_artifacts(out_dir, files)


_SVG_W, _SVG_H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_MODE_FILL = {MODE_VS: "#1f6fb4", MODE_NOVS: "#d1495b"}


def _scatter_svg(report: BenchReport) -> str:
    """Hand-rolled SVG scatter: linear error axis, log10 time axis."""
    pts = [(r.retrospective_error_mm, math.log10(r.time_s), r.mode)
           for r in report.rows
           if np.isfinite(r.retrospective_error_mm) and 0 < r.time_s < math.inf]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
             f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
             f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>']
    x0, x1 = _ML, _SVG_W - _MR
    y0, y1 = _SVG_H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    if pts:
        emax = max(p[0] for p in pts) * 1.05 or 1.0
        lt_lo = math.floor(min(p[1] for p in pts))
        lt_hi = math.ceil(max(p[1] for p in pts))
        if lt_hi == lt_lo:
            lt_hi += 1

        def sx(e):
            return x0 + (x1 - x0) * e / emax

        def sy(lt):
            return y0 + (y1 - y0) * (lt - lt_lo) / (lt_hi - lt_lo)

        for k in range(5):
            e = emax * k / 4.0
            parts.append(f'<line x1="{sx(e):.2f}" y1="{y0}" x2="{sx(e):.2f}" '
                         f'y2="{y0 + 5}" stroke="black"/>')
            parts.append(f'<text x="{sx(e):.2f}" y="{y0 + 20}" font-size="12" '
                         f'text-anchor="middle">{e:.2f}</text>')
        for d in range(lt_lo, lt_hi + 1):
            # the decade's label from its literal: 10.0 ** d overflows at 309
            label = f"{float(f'1e{d}'):g}"
            parts.append(f'<line x1="{x0 - 5}" y1="{sy(d):.2f}" x2="{x0}" '
                         f'y2="{sy(d):.2f}" stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{sy(d):.2f}" font-size="12" '
                         f'text-anchor="end" dominant-baseline="middle">{label}</text>')
        for e, lt, mode in pts:
            parts.append(f'<circle cx="{sx(e):.2f}" cy="{sy(lt):.2f}" r="3.5" '
                         f'fill="{_MODE_FILL[mode]}" fill-opacity="0.75"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_SVG_H - 12}" font-size="13" '
                 f'text-anchor="middle">retrospective error (mm)</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(y0 + y1) / 2:.2f})">insertion time (s)</text>')
    lx = x1 - 150
    for k, mode in enumerate(BENCH_MODES):
        ly = y1 + 14 + 18 * k
        parts.append(f'<circle cx="{lx}" cy="{ly}" r="3.5" fill="{_MODE_FILL[mode]}"/>')
        label = "servo + search" if mode == MODE_VS else "search only"
        parts.append(f'<text x="{lx + 10}" y="{ly + 4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
