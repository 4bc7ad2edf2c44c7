#!/usr/bin/env python3
"""Wall-clock benchmark of pegservo, end to end and layer by layer.

    python3 perfbench/run.py --workload configure --seed 1 --seconds 12 --trace 0

Run from the repository root. The library is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the full record of the run
(environment, every metric, work counts, digests, spans). perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
clock = time.perf_counter

# Printed with --trace 0; must match BENCHMARK.json's end_to_end.
END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "insert_success_ratio": "ratio",
}

# Printed with --trace 1; must match BENCHMARK.json's per_layer. The last
# group is end-to-end in meaning but exists on only some workloads; it reads
# 0 on the others, as does every layer a workload never calls.
PER_LAYER = {
    "sim.render.us": "us",
    "sim.render.calls": "count",
    "sim.render.share": "ratio",
    "sim.spiral_insert.us_per_attempt": "us",
    "sim.spiral_insert.calls": "count",
    "sim.spiral_insert.attempts": "count",
    "sim.spiral_insert.hit_ratio": "ratio",
    "sim.new_world.us": "us",
    "sim.new_world.calls": "count",
    "search.generate_pattern.us": "us",
    "search.generate_pattern.calls": "count",
    "pipeline.collect_dataset.s": "s",
    "perception.train.s": "s",
    "perception.train.calls": "count",
    "perception.train.gram_order": "count",
    "perception.evaluate.s": "s",
    "perception.predict.us": "us",
    "perception.predict.calls": "count",
    "servoing.servo_step.us": "us",
    "servoing.servo_step.calls": "count",
    "geometry.reconstruct_error.us": "us",
    "geometry.reconstruct_error.calls": "count",
    "pipeline.insert.vs_ms": "ms",
    "pipeline.insert.novs_ms": "ms",
    "bench.run_benchmark.s": "s",
    "bench.build_report.ms": "ms",
    "bench.emit_report.ms": "ms",
    "bench.jobs2_speedup": "ratio",
    "trace_overhead_ratio": "ratio",
    "samples_per_s": "1/s",
    "sim_speedup": "ratio",
    "val_mae_mm_max": "mm",
    "deploy_ratio": "ratio",
    "quad_law_slope_err": "1",
    "failed_ratio": "ratio",
}

# Spans whose median duration is a per-layer metric, with its scale.
SPAN_METRICS = {
    "pipeline.collect_dataset": ("pipeline.collect_dataset.s", 1.0),
    "perception.train": ("perception.train.s", 1.0),
    "perception.evaluate": ("perception.evaluate.s", 1.0),
    "bench.run_benchmark": ("bench.run_benchmark.s", 1.0),
    "bench.emit_report": ("bench.emit_report.ms", 1e3),
}


class Tracer:
    """Spans kept in memory: name, start, end, the enclosing span, the pass."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.trace_id = 0

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "trace": self.trace_id, "name": name, "start": clock(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = clock()
            self._open.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in self.spans:
            e = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d = s["end"] - s["start"]
            e["calls"] += 1
            e["total_s"] += d
            e["self_s"] += d - child_time.get(s["id"], 0.0)
        return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("configure", "servo-grid", "search-wide"))
    p.add_argument("--seed", type=int, required=True,
                   help="run seed: pass order, warm-up inputs, probe samples")
    p.add_argument("--seconds", type=float, required=True,
                   help="measured wall time, in passes spread between the set-ups; "
                        "at least two passes per mode run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--world-seed", type=int, default=None,
                   help="first world seed of the training worlds (default 1000)")
    p.add_argument("--bench-seed", type=int, default=None,
                   help="seed of the benchmark grid (default 12)")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=os.path.join(HERE, "out"),
                   help="directory for emit_report's artifacts")
    return p.parse_args(argv)


def import_library():
    """Import pegservo from ./src, timed; refuse any other installed copy."""
    if not os.path.isfile(os.path.join(SRC, "pegservo", "__init__.py")):
        raise SystemExit(f"perfbench: no pegservo sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = clock()
    import pegservo
    import workloads
    import_s = clock() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(pegservo.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported pegservo from {pegservo.__file__}")
    return workloads, import_s


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def measure(workload, passes, modes, seconds, min_passes):
    """Append passes until they total `seconds` and number `min_passes`.

    Passes cycle through `modes` (None runs untraced, a Tracer traced). An
    operation that raises is recorded as failed and the pass goes on.
    """
    while len(passes) < min_passes or sum(p["seconds"] for p in passes) < seconds:
        mode = modes[len(passes) % len(modes)]
        if mode is not None:
            mode.trace_id = len(passes)
        ops = []
        t0 = clock()
        for key, fn in workload.ops():
            o0 = clock()
            try:
                result, error = fn(mode), None
            except Exception as exc:  # noqa: BLE001 - counted in `failed`
                result, error = None, f"{type(exc).__name__}: {exc}"
            ops.append({"key": key, "seconds": clock() - o0, "result": result,
                        "error": error})
        passes.append({"traced": mode is not None, "seconds": clock() - t0, "ops": ops})


def judge(workload, passes, setup_digests):
    """Count failed operations, collect check problems and the digest log."""
    first, failed, problems, log = {}, 0, [], []
    for rep in setup_digests[1:]:
        if rep != setup_digests[0]:
            problems.append("set-up repeats trained different models")
    for k, p in enumerate(passes):
        for op in p["ops"]:
            entry = {"pass": k, "traced": p["traced"], "key": op["key"],
                     "seconds": op["seconds"]}
            log.append(entry)
            if op["error"] is not None:
                failed += 1
                entry["error"] = op["error"]
                problems.append(f"{op['key']}: {op['error']}")
                continue
            entry["digests"] = op["result"].digests
            changed = [name for name, d in op["result"].digests.items()
                       if first.setdefault(name, d) != d]
            if changed:
                failed += 1
                problems.append(f"pass {k}: digest changed for {changed}")
            problems += [f"{op['key']}: {msg}" for msg in workload.check(op["result"])]
    return failed, problems, log, first


def compare_reference(name, digests, pinned):
    if not pinned or not os.path.isfile(REFERENCE):
        return {d: "unpinned" for d in digests}
    with open(REFERENCE) as fh:
        ref = json.load(fh).get(name, {})
    return {d: ("match" if ref.get(d) == v else "differs" if d in ref else "new")
            for d, v in digests.items()}


def last_clean_pass(passes):
    for p in reversed(passes):
        if not p["traced"] and all(op["error"] is None for op in p["ops"]):
            return {op["key"]: op["result"] for op in p["ops"]}
    return None


def main(argv=None):
    args = parse_args(argv)
    workloads, import_s = import_library()
    world_seed = workloads.WORLD_SEED if args.world_seed is None else args.world_seed
    bench_seed = workloads.BENCH_SEED if args.bench_seed is None else args.bench_seed
    pinned = (args.size == "full" and world_seed == workloads.WORLD_SEED
              and bench_seed == workloads.BENCH_SEED)
    wl = workloads.make(args.workload, args.size, world_seed, bench_seed, args.seed,
                        args.out)

    # The machine's speed drifts over tens of seconds, so the measured passes
    # are spread between the set-ups instead of following them in one block.
    # Each set-up is complete on its own; passes use the latest one.
    tracer = Tracer() if args.trace else None
    modes = [None] if tracer is None else [None, tracer]
    setup_times, setup_digests, passes = [], [], []
    for k in range(1, SETUP_REPEATS + 1):
        t0 = clock()
        setup_digests.append(wl.setup())
        setup_times.append(clock() - t0)
        measure(wl, passes, modes, args.seconds * k / SETUP_REPEATS,
                math.ceil(2 * len(modes) * k / SETUP_REPEATS))
    failed, problems, log, digests = judge(wl, passes, setup_digests)
    attempted = sum(len(p["ops"]) for p in passes)

    results = last_clean_pass(passes)
    if results is None:
        raise SystemExit("perfbench: every untraced pass failed")
    summary = wl.summarize(results)
    counts = summary["counts"]
    # Mean, not median, pass time: the machine's speed drifts in phases of
    # tens of seconds, and a median over passes picks one phase.
    plain_s = statistics.fmean(p["seconds"] for p in passes if not p["traced"])
    figures = {
        "setup_s": import_s + statistics.median(setup_times),
        "episodes_per_s": summary["episodes"] / plain_s,
        "samples_per_s": summary["samples"] / plain_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "insert_success_ratio": summary["insert_success_ratio"],
        "sim_speedup": summary.get("sim_speedup", 0.0),
        "val_mae_mm_max": summary.get("val_mae_mm_max", 0.0),
        "deploy_ratio": summary.get("deploy_ratio", 0.0),
        "quad_law_slope_err": summary.get("quad_law_slope_err", 0.0),
        "failed_ratio": failed / attempted,
    }
    layers = {}
    if tracer is not None:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(counts)
        layers.update(wl.probe(summary, results))
        for span, (metric, scale) in SPAN_METRICS.items():
            d = tracer.durations(span)
            if d:
                layers[metric] = statistics.median(d) * scale
        layers["sim.render.share"] = (layers["sim.render.calls"] * layers["sim.render.us"]
                                      * 1e-6 / plain_s)
        traced_s = statistics.fmean(p["seconds"] for p in passes if p["traced"])
        layers["trace_overhead_ratio"] = traced_s / plain_s
        if hasattr(wl, "jobs2_speedup"):
            layers["bench.jobs2_speedup"], agree = wl.jobs2_speedup(repeats=2)
            if not agree:
                problems.append("run_benchmark rows differ between jobs=1 and jobs=2")
        for name in ("samples_per_s", "sim_speedup", "val_mae_mm_max", "deploy_ratio",
                     "quad_law_slope_err", "failed_ratio"):
            layers[name] = figures[name]
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise SystemExit(f"perfbench: unlisted per-layer metrics {sorted(unknown)}")

    shown = layers if args.trace else {k: figures[k] for k in END_TO_END}
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in shown.items()}}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "world_seed": world_seed, "bench_seed": bench_seed,
        "environment": environment(),
        "import_s": import_s, "setup_repeats_s": setup_times,
        "pass_seconds": [p["seconds"] for p in passes],
        "figures": figures, "work_counts": counts, "layers": layers,
        "setup_digests": setup_digests[-1],
        "digests": digests,
        "digests_vs_reference": compare_reference(args.workload, digests, pinned),
        "operations": log, "problems": problems,
        "spans": tracer.summary() if tracer is not None else {},
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
