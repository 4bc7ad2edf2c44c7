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

import numpy as np

from .errors import (CorruptArtifact, InsufficientData, InvalidConfig,
                     ModelsNotDeployed, csv_text, read_artifact, write_artifacts)
from .perception import TrainConfig
from .pipeline import (CollectionConfig, DeploymentGate, collection_pattern, configure,
                       insert_batch)
from .search import generate_pattern
from .servoing import CLAMP_MM, ServoConfig
from .sim import (BENCH_MODES, COMPONENT_STYLES, MODE_NOVS, MODE_VS, Episode, Episodes,
                  TimingModel, WorldConfig, check_int, config_from_dict, config_to_dict,
                  keyed_uniforms, move_tcps, new_worlds, peg_position, seed_states)


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
        for name, low in (("seed", 0), ("insertions_per_style_per_mode", 1), ("n_iters", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
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
    (collection_pattern), a servoed peg's reach (WorldConfig.sees_disc) and no
    move rounding out of plane (check_rounding). gate None means configure's default."""

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
        w, disc = self.world, self.bench.error_disc_radius
        # a servoed peg renders within the disc and a step of its draw (new_worlds')
        if MODE_VS in self.bench.modes and not w.sees_disc(disc + CLAMP_MM):
            raise InvalidConfig(f"error_disc_radius {disc} puts a servoed peg behind a camera")
        # The TCP's in-plane reach from the approach pose: a start error in the
        # bench disc, a servo heading for the drawn hole (within 8 sigmas of each
        # draw) that overshoots by at most one clamped step, then a spiral over
        # the disc plus the tolerance. A collection spirals over max_offset_mag.
        w.check_rounding(2.0 * max(disc, self.collection.max_offset_mag) + w.tolerance + CLAMP_MM
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

    def to_dict(self) -> dict:
        """Each section by config_to_dict (gate only if set): from_dict reads back this run."""
        return {name: config_to_dict(s) for name, s in vars(self).items() if s is not None}


def train_styles(run: RunConfig, seed: int) -> dict:
    """Per grid style, configure's result on the run's sections, from worlds of
    that style's config at seeds seed, seed + 1, ... drawn as one new_worlds block."""
    results, n = {}, run.collection.n_insertions
    for style in run.bench.component_styles:
        styled = replace(run.world, component_style=style)
        worlds = new_worlds(styled, range(seed, seed + n))
        results[style] = configure(worlds.__getitem__, run.collection, run.train, run.gate)
    return results


_BLOCK = 64  # most episodes per spiral_search; only one block's worlds are alive


def _run_block(cfg: BenchConfig, servo_cfgs: dict, block) -> Episodes:
    """The episodes of a block of one style's rows, in order: its config's worlds at the
    rows' seeds, each moved by its start offset and, in a vs row, servoed by the style's
    ServoConfig; a vs row whose drawn peg breaks RunConfig's reach rule raises
    InvalidConfig before any render."""
    style, seeds, vs, starts = block
    worlds = new_worlds(style, seeds)
    if vs.any():  # the rule around each vs row's drawn peg
        sees = partial(style.sees_disc, cfg.error_disc_radius + CLAMP_MM)
        pegs = peg_position(worlds)[vs]
        if not sees(pegs):
            seed = next(s for s, peg in zip(worlds.seed[vs].tolist(), pegs) if not sees([peg]))
            raise InvalidConfig(f"seed {seed}: error_disc_radius {cfg.error_disc_radius} "
                                "puts its servoed peg behind a camera")
    move_tcps(worlds, worlds.tcp + (worlds.basis @ starts[:, :, None])[:, :, 0])
    pattern = generate_pattern(cfg.tolerance, cfg.error_disc_radius)
    return insert_batch(worlds, servo_cfgs.get(style.component_style), vs, pattern, cfg.timing)


@dataclass
class BenchReport:
    rows: Episodes  # or any sequence of Episodes
    per_style: dict
    overall: dict
    speedup: float
    success: dict
    direct: dict
    mean_post_servo_retro_mm: float


def _mean_times(times, by_mode: dict) -> dict:
    """Each mode's np.mean time over its mask, as "<mode>_mean_time_s", if it selects a row."""
    return {f"{mode}_mean_time_s": float(np.mean(times[sel]))
            for mode, sel in by_mode.items() if sel.any()}


def _speedup(vs, novs) -> float:
    """Mean search-only time over mean servo time; nan unless both exist and vs > 0."""
    return novs / vs if vs is not None and novs is not None and vs > 0 else float("nan")


def build_report(rows) -> BenchReport:
    """Deterministic ordered aggregation of Episodes.of(rows) by masks over its columns."""
    rows = Episodes.of(rows)
    col = rows.columns
    times, styles, ok = col["time_s"], col["style"], col["success"]
    by_mode = {mode: col["mode"] == code for code, mode in enumerate(BENCH_MODES)}
    per_style = {COMPONENT_STYLES[code]: _mean_times(times, {mode: sel & (styles == code)
                                                             for mode, sel in by_mode.items()})
                 for code in sorted(set(styles.tolist()), key=COMPONENT_STYLES.__getitem__)}
    overall = _mean_times(times, by_mode)
    success = {}
    direct = {}
    for mode, sel in by_mode.items():
        success[mode] = int(np.count_nonzero(ok & sel))
        success[f"{mode}_total"] = int(np.count_nonzero(sel))
        direct[mode] = int(np.count_nonzero(col["direct"] & sel))
    post = col["post_servo_retrospective_error_mm"][by_mode[MODE_VS] & ok]
    mean_post = float(np.mean(post)) if len(post) else float("nan")
    return BenchReport(rows=rows, per_style=per_style, overall=overall,
                       speedup=_speedup(overall.get(f"{MODE_VS}_mean_time_s"),
                                        overall.get(f"{MODE_NOVS}_mean_time_s")),
                       success=success, direct=direct, mean_post_servo_retro_mm=mean_post)


def run_benchmark(cfg: BenchConfig, models: dict, jobs: int = 1) -> BenchReport:
    """Run the full style x insertion x mode grid, a block of one style's episodes
    at a time (at most _BLOCK; a block never crosses a style boundary).

    models maps style -> sequence of per-camera models; required for every
    style when the vs mode is enabled, each style's one ServoConfig calibrated
    by its config. Paired episodes share the hidden world and start error
    across modes. jobs > 1 distributes the blocks over processes; results are
    identical to the serial run. Only perfbench's bench.jobs2_speedup probe
    passes jobs; the CLI always runs serially.
    """
    if MODE_VS in cfg.modes:
        missing = [s for s in cfg.component_styles if (models or {}).get(s) is None]
        if missing:
            raise ModelsNotDeployed(f"no deployed models for styles: {missing}")
    styles = [replace(cfg.world_template, component_style=style)
              for style in cfg.component_styles]  # each validated once
    servo_cfgs = {name: ServoConfig(tuple(models[name]), style, cfg.n_iters, cfg.timing)
                  for name, style in zip(cfg.component_styles, styles) if MODE_VS in cfg.modes}
    n, m = cfg.insertions_per_style_per_mode, len(cfg.modes)
    # Drawn once for the grid per key [seed, style index, insertion]: the world seed, and
    # with a 7 appended, the start offset from a uniform angle and a uniform area on the disc
    keys = np.empty((len(styles), n, 4), dtype=object if cfg.seed >> 64 else np.uint64)
    keys[..., 0], keys[..., 3] = cfg.seed, 7
    keys[..., 1], keys[..., 2] = np.ogrid[:len(styles), :n]
    seeds = seed_states(keys[:, :, :3].reshape(-1, 3))[:, 0] >> np.uint64(1)
    draws = keyed_uniforms(keys.reshape(-1, 4), 2)
    theta, rad = 2.0 * np.pi * draws[:, 0], cfg.error_disc_radius * np.sqrt(draws[:, 1])
    starts = rad[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # a style's rows: each insertion once per mode, cut into blocks of at most _BLOCK
    seeds = np.repeat(seeds, m).reshape(len(styles), n * m).tolist()
    starts = np.repeat(starts, m, axis=0).reshape(len(styles), n * m, 2)
    vs = np.tile(np.array(cfg.modes) == MODE_VS, n)
    blocks = [(style, seeds[si][k:k + _BLOCK], vs[k:k + _BLOCK], starts[si, k:k + _BLOCK])
              for si, style in enumerate(styles) for k in range(0, n * m, _BLOCK)]
    run = partial(_run_block, cfg, servo_cfgs)
    if jobs > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly import, needed only here
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(run, blocks))
    else:
        parts = map(run, blocks)
    return build_report(Episodes.of(parts))


def fit_quadratic_law(pairs) -> dict:
    """Log-log line fit of search time vs retrospective error.

    pairs: (error_mm, time_s) rows or an (n, 2) array; only those whose error and
    time are both finite and > 0 are used. Requires >= 10 spanning a 3x error range.
    """
    pts = np.array(pairs, dtype=float).reshape(-1, 2)
    errs, ts = pts[np.isfinite(pts).all(axis=1) & (pts > 0).all(axis=1)].T
    if len(errs) < 10:
        raise InsufficientData(f"need >= 10 usable pairs, got {len(errs)}")
    if errs.max() / errs.min() < 3.0:
        raise InsufficientData("errors must span at least a 3x range")
    slope, intercept = np.polyfit(np.log(errs), np.log(ts), 1)
    pred = slope * np.log(errs) + intercept
    ss_res = float(np.sum((np.log(ts) - pred) ** 2))
    ss_tot = float(np.sum((np.log(ts) - np.mean(np.log(ts))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": float(r2), "n": len(errs)}


# rows.csv holds one Episode per line, its fields in declaration order.
_ROW_COLUMNS = [f.name for f in fields(Episode)]
_PARSE = {str: str, int: int, float: float, bool: lambda v: {"0": False, "1": True}[v]}


def read_rows(path) -> Episodes:
    """The Episodes batch of a rows.csv that emit_report wrote; a row that does not
    parse, contradicts itself or holds a value no run writes raises CorruptArtifact
    naming its line: a run writes 63-bit seeds (another would turn the seed column
    float or object) and finite times and errors >= 0, a retrospective error nan
    only where the row needs it."""
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
        for name, names in Episodes.CODES.items():
            if getattr(row, name) not in names:
                raise CorruptArtifact(f"{path} line {n}: unknown {name} {getattr(row, name)!r}")
        failed = not row.success
        if (row.attempts < 1 or row.direct != (row.success and row.attempts == 1)
                or math.isnan(row.retrospective_error_mm) != failed
                or math.isnan(row.post_servo_retrospective_error_mm)
                != (failed or row.mode == MODE_NOVS)):
            raise CorruptArtifact(f"{path} line {n}: contradictory episode {line}")
        numbers = (row.time_s, row.true_error_mm, row.retrospective_error_mm,
                   row.post_servo_retrospective_error_mm)
        if not (0 <= row.seed < 1 << 63 and all(0 <= v < math.inf or k > 1 and math.isnan(v)
                                                for k, v in enumerate(numbers))):
            raise CorruptArtifact(f"{path} line {n}: seed, time or error out of range: {line}")
        rows.append(row)
    return Episodes.of(rows)


def _table_row(name: str, means: dict) -> tuple:
    """A table.csv row: the mean times (None for a mode without rows), speedup."""
    vs, novs = means.get(f"{MODE_VS}_mean_time_s"), means.get(f"{MODE_NOVS}_mean_time_s")
    return name, vs, novs, _speedup(vs, novs)


def _row_files(col: dict) -> tuple:
    """scatter.csv and rows.csv as csv_text writes them, a column's _BLOCK rows at a time."""
    names = {name: np.array(Episodes.CODES.get(name, ("0", "1")), dtype=object)  # by uint8
             for name, c in col.items() if name in Episodes.CODES or c.dtype == bool}
    scatter, rows = ["error_mm,time_s,mode\n"], [",".join(_ROW_COLUMNS) + "\n"]
    for k in range(0, len(col["style"]), _BLOCK):
        text = {name: names[name][c[k:k + _BLOCK].view(np.uint8)].tolist() if name in names
                else list(map(repr, c[k:k + _BLOCK].tolist())) for name, c in col.items()}
        for lines, columns in ((scatter, [text["retrospective_error_mm"], text["time_s"],
                                          text["mode"]]), (rows, text.values())):
            lines.append("\n".join(map(",".join, zip(*columns))) + "\n")
    return "".join(scatter), "".join(rows)


def emit_report(report: BenchReport, out_dir) -> list:
    """Write table.csv, scatter.csv, rows.csv, summary.json, scatter.svg."""
    col = Episodes.of(report.rows).columns
    errors, times, modes = col["retrospective_error_mm"], col["time_s"], col["mode"]
    table = [_table_row(*item) for item in sorted(report.per_style.items())]
    if len(errors):
        table.append(_table_row("average", report.overall))
    files = {"table.csv": csv_text(["style", "vs_time_s", "novs_time_s", "speedup"], table)}
    files["scatter.csv"], files["rows.csv"] = _row_files(col)
    summary = {
        "per_style": report.per_style,
        "overall": report.overall,
        "speedup": report.speedup,
        "success": report.success,
        "direct": report.direct,
        "mean_post_servo_retro_mm": report.mean_post_servo_retro_mm,
        "n_rows": len(errors),
    }
    law = col["success"] & (modes == BENCH_MODES.index(MODE_NOVS))
    try:
        summary["quadratic_law"] = fit_quadratic_law(np.stack([errors[law], times[law]], axis=1))
    except InsufficientData:
        summary["quadratic_law"] = None
    files["summary.json"] = json.dumps(summary, indent=1, sort_keys=True)
    files["scatter.svg"] = _scatter_svg(errors, times, modes)
    return write_artifacts(out_dir, files)


_SVG_W, _SVG_H = 640, 420
_ML, _MR, _MT, _MB = 60, 20, 20, 50
_MODE_FILL = np.array(["#1f6fb4", "#d1495b"], dtype=object)  # by BENCH_MODES code


def _scatter_svg(errors, times, modes) -> str:
    """Hand-rolled SVG scatter of the rows' columns: linear error axis from 0, log10 time
    axis; a point needs a finite error >= 0 and a finite time > 0."""
    keep = (errors >= 0) & (errors < math.inf) & (times > 0) & (times < math.inf)
    errors, modes = errors[keep], modes[keep]
    log_times = np.array(list(map(math.log10, times[keep].tolist())))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
             f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
             f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>']
    x0, x1 = _ML, _SVG_W - _MR
    y0, y1 = _SVG_H - _MB, _MT
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    if len(errors):
        emax = min(float(errors.max()) * 1.05, np.finfo(float).max) or 1.0
        b = max(math.frexp(emax)[1], 0)  # e and emax over 2**b: exact, and no overflow
        lt_lo = math.floor(log_times.min())
        lt_hi = math.ceil(log_times.max())
        if lt_hi == lt_lo:
            lt_hi += 1

        def sx(e):  # of a float, or of an array, each element as it would be alone
            return x0 + (x1 - x0) * np.ldexp(e, -b) / math.ldexp(emax, -b)

        def sy(lt):
            return y0 + (y1 - y0) * (lt - lt_lo) / (lt_hi - lt_lo)

        for k in range(5):
            e = emax * (k / 4.0)  # emax * k overflows at 1e308
            parts.append(f'<line x1="{sx(e):.2f}" y1="{y0}" x2="{sx(e):.2f}" '
                         f'y2="{y0 + 5}" stroke="black"/>')
            parts.append(f'<text x="{sx(e):.2f}" y="{y0 + 20}" font-size="12" '
                         f'text-anchor="middle">{e:{".2f" if abs(e) < 1e6 else ".3g"}}</text>')
        for d in range(lt_lo, lt_hi + 1):
            # the decade's label from its literal: 10.0 ** d overflows at 309
            label = f"{float(f'1e{d}'):g}"
            parts.append(f'<line x1="{x0 - 5}" y1="{sy(d):.2f}" x2="{x0}" '
                         f'y2="{sy(d):.2f}" stroke="black"/>')
            parts.append(f'<text x="{x0 - 8}" y="{sy(d):.2f}" font-size="12" '
                         f'text-anchor="end" dominant-baseline="middle">{label}</text>')
        parts += map('<circle cx="%.2f" cy="%.2f" r="3.5" fill="%s" fill-opacity="0.75"/>'.__mod__,
                     zip(sx(errors).tolist(), sy(log_times).tolist(), _MODE_FILL[modes].tolist()))
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_SVG_H - 12}" font-size="13" '
                 f'text-anchor="middle">retrospective error (mm)</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(y0 + y1) / 2:.2f})">insertion time (s)</text>')
    lx = x1 - 150
    for k, mode in enumerate(BENCH_MODES):
        ly = y1 + 14 + 18 * k
        parts.append(f'<circle cx="{lx}" cy="{ly}" r="3.5" fill="{_MODE_FILL[k]}"/>')
        label = "servo + search" if mode == MODE_VS else "search only"
        parts.append(f'<text x="{lx + 10}" y="{ly + 4}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
