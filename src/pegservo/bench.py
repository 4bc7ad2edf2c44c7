"""Insertion benchmark: servo-then-search vs search-only.

Runs paired episodes (same hidden world, same start error) in both modes
across component styles, and reports mean times, speedup, success and
centering statistics, plus the quadratic search-time law fit. Emits CSV,
JSON and an SVG scatter with a log time axis.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter

import numpy as np

from .errors import (CorruptArtifact, InsufficientData, InvalidConfig,
                     ModelsNotDeployed, csv_text, read_artifact, write_artifacts)
from .pipeline import insert_batch
from .search import generate_pattern
from .servoing import servo_config_for
from .sim import (BENCH_MODES, COMPONENT_STYLES, MODE_NOVS, MODE_VS, Episode,
                  TimingModel, WorldConfig, move_tcp, new_world)


@dataclass(frozen=True)
class BenchConfig:
    component_styles: tuple = COMPONENT_STYLES
    insertions_per_style_per_mode: int = 10
    error_disc_radius: float = 1.0
    n_iters: int = 3
    seed: int = 12
    timing: TimingModel = field(default_factory=TimingModel)
    world_template: WorldConfig = field(default_factory=WorldConfig)
    modes: tuple = BENCH_MODES

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.insertions_per_style_per_mode < 1:
            raise InvalidConfig("insertions_per_style_per_mode must be >= 1")
        if type(self.n_iters) is not int or self.n_iters < 1:
            raise InvalidConfig(f"n_iters must be an integer >= 1, got {self.n_iters!r}")
        if not 0 <= self.error_disc_radius < math.inf:
            raise InvalidConfig(f"error_disc_radius must be finite and >= 0, "
                                f"got {self.error_disc_radius}")
        unknown = [s for s in self.component_styles if s not in COMPONENT_STYLES]
        if unknown:
            raise InvalidConfig(f"unknown styles: {unknown}")
        bad_modes = [m for m in self.modes if m not in BENCH_MODES]
        if bad_modes:
            raise InvalidConfig(f"unknown modes: {bad_modes}; expected {BENCH_MODES}")

    @property
    def tolerance(self) -> float:
        """The insertion clearance: the world template's, the grid's only one."""
        return self.world_template.tolerance


_BLOCK = 32  # episodes per spiral_search; only one block's worlds are alive


def _row_seed(base: int, style_index: int, insertion: int) -> int:
    ss = np.random.SeedSequence([base, style_index, insertion])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _run_block(cfg: BenchConfig, models: dict, keys) -> list:
    """The episodes of (style index, insertion, mode) keys, in order. Each
    builds its world and start error from its own seeds, so a row does not
    depend on its block; each style's config is validated once per block."""
    styles = {si: replace(cfg.world_template, component_style=cfg.component_styles[si])
              for si in {si for si, _, _ in keys}}
    worlds, servo_cfgs = [], []
    for si, i, mode in keys:
        style = cfg.component_styles[si]
        world = new_world(styles[si].with_seed(_row_seed(cfg.seed, si, i)))
        err_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, si, i, 7]))
        theta = err_rng.uniform(0.0, 2.0 * np.pi)
        rad = cfg.error_disc_radius * math.sqrt(err_rng.uniform())
        move_tcp(world, world.tcp + world.basis @ (rad * np.array([np.cos(theta),
                                                                   np.sin(theta)])))
        worlds.append(world)
        servo_cfgs.append(None if mode == MODE_NOVS else servo_config_for(
            world, models[style], n_iters=cfg.n_iters, timing=cfg.timing))
    pattern = generate_pattern(cfg.tolerance, cfg.error_disc_radius)
    return insert_batch(worlds, servo_cfgs, pattern, cfg.timing)


class _Rows:
    """A report's Episodes as one array per field, about 70 bytes a row
    against 330 for the objects, rebuilt on access: a list's len, iteration,
    integer index, == and repr."""

    def __init__(self, episodes):
        self._columns = [np.array([getattr(r, f.name) for r in episodes],
                                  dtype=object if f.type is str else None)
                         for f in fields(Episode)]

    def __len__(self):
        return len(self._columns[0])

    def __iter__(self):
        return map(Episode, *(c.tolist() for c in self._columns))

    def __getitem__(self, k):
        return Episode(*(c.item(k) for c in self._columns))

    def __eq__(self, other):
        return list(self) == list(other)

    def __repr__(self):
        return repr(list(self))


@dataclass
class BenchReport:
    rows: _Rows  # or any sequence of Episodes
    per_style: dict
    overall: dict
    speedup: float
    success: dict
    direct: dict
    mean_post_servo_retro_mm: float


def _mean_times(by_mode: dict) -> dict:
    """Each mode's np.mean time, as "<mode>_mean_time_s", if the mode has rows."""
    return {f"{mode}_mean_time_s": float(np.mean([r.time_s for r in sel]))
            for mode, sel in by_mode.items() if sel}


def _speedup(vs, novs) -> float:
    """Mean search-only time over mean servo time; nan unless both exist and vs > 0."""
    return novs / vs if vs is not None and novs is not None and vs > 0 else float("nan")


def build_report(rows) -> BenchReport:
    """Deterministic ordered aggregation of benchmark rows, split by mode once."""
    rows = list(rows)
    by_mode = {mode: [r for r in rows if r.mode == mode] for mode in BENCH_MODES}
    per_style = {style: _mean_times({mode: [r for r in sel if r.style == style]
                                     for mode, sel in by_mode.items()})
                 for style in sorted({r.style for r in rows})}
    overall = _mean_times(by_mode)
    success = {}
    direct = {}
    for mode, sel in by_mode.items():
        success[mode] = sum(r.success for r in sel)
        success[f"{mode}_total"] = len(sel)
        direct[mode] = sum(r.direct for r in sel)
    post = [r.post_servo_retrospective_error_mm for r in by_mode[MODE_VS] if r.success]
    mean_post = float(np.mean(post)) if post else float("nan")
    return BenchReport(rows=_Rows(rows), per_style=per_style, overall=overall,
                       speedup=_speedup(overall.get(f"{MODE_VS}_mean_time_s"),
                                        overall.get(f"{MODE_NOVS}_mean_time_s")),
                       success=success, direct=direct,
                       mean_post_servo_retro_mm=mean_post)


def run_benchmark(cfg: BenchConfig, models: dict, jobs: int = 1) -> BenchReport:
    """Run the full style x insertion x mode grid, a block of episodes at a time.

    models maps style -> sequence of per-camera models; required for every
    style when the vs mode is enabled. Paired episodes share the hidden
    world and start error across modes. jobs > 1 distributes the blocks
    over processes; results are identical to the serial run. Only
    perfbench's bench.jobs2_speedup probe passes jobs; the CLI always runs
    serially.
    """
    if MODE_VS in cfg.modes:
        missing = [s for s in cfg.component_styles
                   if not models or s not in models or models[s] is None]
        if missing:
            raise ModelsNotDeployed(f"no deployed models for styles: {missing}")
    keys = [(si, i, mode) for si in range(len(cfg.component_styles))
            for i in range(cfg.insertions_per_style_per_mode) for mode in cfg.modes]
    blocks = [keys[k:k + _BLOCK] for k in range(0, len(keys), _BLOCK)]
    run = partial(_run_block, cfg, models or {})
    if jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly import, needed only here
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = map(run, blocks)
    return build_report([row for part in parts for row in part])


def fit_quadratic_law(pairs) -> dict:
    """Log-log line fit of search time vs retrospective error.

    pairs: (error_mm, time_s); only those whose error and time are both
    finite and > 0 are used. Requires >= 10 of them spanning a 3x error range.
    """
    pts = [(float(e), float(t)) for e, t in pairs
           if np.isfinite(e) and np.isfinite(t) and e > 0 and t > 0]
    if len(pts) < 10:
        raise InsufficientData(f"need >= 10 usable pairs, got {len(pts)}")
    errs, ts = np.array(pts).T
    if errs.max() / errs.min() < 3.0:
        raise InsufficientData("errors must span at least a 3x range")
    slope, intercept = np.polyfit(np.log(errs), np.log(ts), 1)
    pred = slope * np.log(errs) + intercept
    ss_res = float(np.sum((np.log(ts) - pred) ** 2))
    ss_tot = float(np.sum((np.log(ts) - np.mean(np.log(ts))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept),
            "r2": float(r2), "n": len(pts)}


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


def _table_row(name: str, means: dict) -> tuple:
    """A table.csv row: the mean times (None for a mode without rows), speedup."""
    vs, novs = means.get(f"{MODE_VS}_mean_time_s"), means.get(f"{MODE_NOVS}_mean_time_s")
    return name, vs, novs, _speedup(vs, novs)


def emit_report(report: BenchReport, out_dir) -> list:
    """Write table.csv, scatter.csv, rows.csv, summary.json, scatter.svg."""
    rows = list(report.rows)
    table = [_table_row(*item) for item in sorted(report.per_style.items())]
    if rows:
        table.append(_table_row("average", report.overall))
    files = {
        "table.csv": csv_text(["style", "vs_time_s", "novs_time_s", "speedup"], table),
        "scatter.csv": csv_text(["error_mm", "time_s", "mode"],
                                [(r.retrospective_error_mm, r.time_s, r.mode)
                                 for r in rows]),
        "rows.csv": csv_text(_ROW_COLUMNS, map(attrgetter(*_ROW_COLUMNS), rows)),
    }
    summary = {
        "per_style": report.per_style,
        "overall": report.overall,
        "speedup": report.speedup,
        "success": report.success,
        "direct": report.direct,
        "mean_post_servo_retro_mm": report.mean_post_servo_retro_mm,
        "n_rows": len(rows),
    }
    try:
        summary["quadratic_law"] = fit_quadratic_law(
            [(r.retrospective_error_mm, r.time_s) for r in rows
             if r.mode == MODE_NOVS and r.success])
    except InsufficientData:
        summary["quadratic_law"] = None
    files["summary.json"] = json.dumps(summary, indent=1, sort_keys=True)
    files["scatter.svg"] = _scatter_svg(rows)
    return write_artifacts(out_dir, files)


_SVG_W, _SVG_H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_MODE_FILL = {MODE_VS: "#1f6fb4", MODE_NOVS: "#d1495b"}


def _scatter_svg(rows) -> str:
    """Hand-rolled SVG scatter: linear error axis, log10 time axis."""
    pts = [(r.retrospective_error_mm, math.log10(r.time_s), r.mode)
           for r in rows
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
