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
from .perception import TrainConfig
from .pipeline import (CollectionConfig, DeploymentGate, collection_pattern, configure,
                       insert_batch)
from .search import generate_pattern
from .servoing import CLAMP_MM, servo_config_for
from .sim import (BENCH_MODES, COMPONENT_STYLES, MODE_NOVS, MODE_VS, Episode,
                  TimingModel, WorldConfig, check_int, config_from_dict, config_to_dict,
                  keyed_generators, move_tcp, new_worlds, seed_states)


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
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        object.__setattr__(self, "insertions_per_style_per_mode", check_int(
            "insertions_per_style_per_mode", self.insertions_per_style_per_mode, 1))
        object.__setattr__(self, "n_iters", check_int("n_iters", self.n_iters, 1))
        if not 0 <= self.error_disc_radius < math.inf:
            raise InvalidConfig(f"error_disc_radius must be finite and >= 0, "
                                f"got {self.error_disc_radius}")
        for name, known in (("component_styles", COMPONENT_STYLES), ("modes", BENCH_MODES)):
            values = getattr(self, name)  # a repeat would run its rows twice
            if any(v not in known or values.count(v) > 1 for v in values):
                raise InvalidConfig(f"{name} must be distinct members of {known}, got {values}")
        generate_pattern(self.tolerance, self.error_disc_radius)  # memoized for _run_block

    @property
    def tolerance(self) -> float:
        """The insertion clearance: the world template's, the grid's only one."""
        return self.world_template.tolerance


@dataclass(frozen=True)
class RunConfig:
    """Every config section of a run, each checked by its class (BenchConfig
    checks the grid's pattern), and the rules that span sections: bench runs
    the run's world and timing, the collection's reach and pattern
    (collection_pattern), and no move of the run rounds out of plane
    (WorldConfig.check_rounding). gate None means configure's default."""

    world: WorldConfig = field(default_factory=WorldConfig)
    timing: TimingModel = field(default_factory=TimingModel)
    collection: CollectionConfig = field(default_factory=CollectionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    gate: DeploymentGate | None = None

    def __post_init__(self):
        if (self.bench.timing != self.timing
                or config_to_dict(self.bench.world_template) != config_to_dict(self.world)):
            raise InvalidConfig("bench must run the run's world and timing")
        collection_pattern(self.world, self.collection)
        # The TCP's in-plane reach from the approach pose: a start error in the
        # bench disc, a servo heading for the drawn hole (within 8 sigmas of each
        # draw) that overshoots by at most one clamped step, then a spiral over
        # the disc plus the tolerance. A collection spirals over max_offset_mag.
        w, disc = self.world, max(self.bench.error_disc_radius, self.collection.max_offset_mag)
        w.check_rounding(2.0 * disc + w.tolerance + CLAMP_MM
                         + 8.0 * (w.hole_uncertainty_sigma + w.grasp_uncertainty_sigma))

    @classmethod
    def from_dict(cls, raw: dict, **world) -> "RunConfig":
        """The run of a parsed config file's sections, each by config_from_dict,
        an absent one at its defaults (gate: None). world replaces fields of the
        world section, as flags do, before bench is built with it and the timing."""
        names = [f.name for f in fields(cls)]
        unknown = set(raw) - set(names)
        if unknown:
            raise InvalidConfig(f"unknown config sections: {sorted(unknown)}; "
                                f"expected a subset of {sorted(names)}")
        wcfg = config_from_dict(WorldConfig, raw.get("world", {}))
        wcfg = replace(wcfg, **world) if world else wcfg
        timing = config_from_dict(TimingModel, raw.get("timing", {}))
        return cls(world=wcfg, timing=timing,
                   collection=config_from_dict(CollectionConfig, raw.get("collection", {})),
                   train=config_from_dict(TrainConfig, raw.get("train", {})),
                   bench=config_from_dict(BenchConfig, raw.get("bench", {}), timing=timing,
                                          world_template=wcfg),
                   gate=config_from_dict(DeploymentGate, raw["gate"]) if "gate" in raw else None)


def train_styles(run: RunConfig, seed: int) -> dict:
    """Per grid style, configure's result on the run's sections, from worlds of
    that style at seeds seed, seed + 1, ... drawn with one new_worlds call."""
    results = {}
    for style in run.bench.component_styles:
        styled = replace(run.world, component_style=style)
        worlds = new_worlds([styled.with_seed(seed + i)
                             for i in range(run.collection.n_insertions)])
        results[style] = configure(worlds.__getitem__, run.collection, run.train, run.gate)
    return results


_BLOCK = 32  # episodes per spiral_search; only one block's worlds are alive


def _run_block(cfg: BenchConfig, models: dict, block) -> list:
    """The episodes of a block's (style's world config, world seed, mode) rows,
    in order, each world moved by its row of the block's start offsets."""
    rows, starts = block
    worlds = new_worlds([style.with_seed(seed) for style, seed, _ in rows])
    servo_cfgs = []
    for world, start, (_, _, mode) in zip(worlds, starts, rows):
        move_tcp(world, world.tcp + world.basis @ start)
        servo_cfgs.append(None if mode == MODE_NOVS else servo_config_for(
            world, models[world.config.component_style], n_iters=cfg.n_iters, timing=cfg.timing))
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
                       success=success, direct=direct, mean_post_servo_retro_mm=mean_post)


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
    styles = [replace(cfg.world_template, component_style=style)
              for style in cfg.component_styles]  # each validated once
    pairs = [(si, i) for si in range(len(styles))
             for i in range(cfg.insertions_per_style_per_mode)]
    # Per (style index, insertion), drawn once for the grid: the world seed, and
    # the start offset from a uniform angle and a uniform area on the disc
    seeds = seed_states([[cfg.seed, si, i] for si, i in pairs])[:, 0] >> np.uint64(1)
    draws = np.empty((len(pairs), 2))
    for row, err_rng in zip(draws, keyed_generators([[cfg.seed, si, i, 7] for si, i in pairs])):
        err_rng.random(out=row)  # uniform(0, 2 pi), then uniform()
    theta, rad = 2.0 * np.pi * draws[:, 0], cfg.error_disc_radius * np.sqrt(draws[:, 1])
    starts = rad[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    starts = np.repeat(starts, len(cfg.modes), axis=0)  # one row per episode
    rows = [(styles[si], seed, mode) for (si, _), seed in zip(pairs, seeds.tolist())
            for mode in cfg.modes]
    blocks = [(rows[k:k + _BLOCK], starts[k:k + _BLOCK]) for k in range(0, len(rows), _BLOCK)]
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
    return {"slope": float(slope), "intercept": float(intercept), "r2": float(r2), "n": len(pts)}


# rows.csv holds one Episode per line, its fields in declaration order.
_ROW_COLUMNS = [f.name for f in fields(Episode)]
_PARSE = {str: str, int: int, float: float, bool: lambda v: {"0": False, "1": True}[v]}


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
            row = Episode(*[p(v) for p, v in zip(parse, line.split(","), strict=True)])
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
