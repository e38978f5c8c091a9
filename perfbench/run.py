"""punchsim benchmark: one workload per run, end-to-end metrics from an
untraced run or per-layer metrics from a traced one.

Run from the root of a punchsim checkout:

    python3 perfbench/run.py --workload campaign-serial --seed 42 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The run exits 1 when an
output fails its check and 2 when it cannot run at all. Details (run
metadata, percentiles with their sample counts, raw host timings,
digests, the layer table) go to
`.perfbench/<workload>-seed<seed>-trace<0|1>.json`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array

PERF = time.perf_counter
WORKDIR = ".perfbench"
WARMUP_S = 0.5
# The reference runs once every REFERENCE_EVERY_S between operations;
# the operations of each SEGMENT_S are scaled by the mean of its runs.
REFERENCE_EVERY_S = 0.05
SEGMENT_S = 0.25
SETUP_REPS = 5
WORKLOAD_NAMES = ("campaign-serial", "birthday-mc", "analyze-file")

END_TO_END = {  # name -> (unit, better)
    "items_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for set-up repetitions)")
    return parser.parse_args(argv)


def run_metadata(root: str, loadavg) -> dict:
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                     capture_output=True, text=True,
                                     timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    src_lines = 0
    src_digest = hashlib.sha256()
    src_dir = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                src_lines += data.count(b"\n")
                src_digest.update(os.path.relpath(path, src_dir).encode() + b"\0" + data)
    return {"git_sha": git_sha, "src_sha256": src_digest.hexdigest(),
            "src_lines": src_lines, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_at_start": list(loadavg),
            "machine": platform.machine()}


class Loop:
    """The timed region: operations 0, 1, 2, ... until `seconds` have
    passed and at least `min_ops` have run."""

    def __init__(self, wl):
        self.wl = wl
        self.times = array("d")   # host seconds per operation
        # (index after the segment's last operation, mean reference s)
        self.segments: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def one(self, i: int):
        wl = self.wl
        raised = False
        t0 = PERF()
        try:
            result = wl.op(i)
        except Exception:  # every exception is a failed operation
            result, raised = None, True
        t1 = PERF()
        if raised and len(self.errors) < 3:
            self.errors.append(traceback.format_exc())
        self.attempted += 1
        if raised or wl.failed(result):
            self.failed += 1
        return result, t1 - t0, t1

    def run(self, seconds: float, min_ops: int, tracer=None):
        """Untraced runs also time the reference every REFERENCE_EVERY_S
        and close a segment every SEGMENT_S; traced runs do neither.
        Returns the tracer's counters after `window_ops` operations."""
        from perfbench.reference import reference_once_s
        wl = self.wl
        calibrate = tracer is None
        window = None
        samples: list[float] = []
        start = PERF()
        deadline = start + seconds
        next_sample = start + REFERENCE_EVERY_S
        segment_end = start + SEGMENT_S
        i = 0
        while True:
            result, elapsed, t_end = self.one(i)
            self.times.append(elapsed)
            wl.keep(i, result)
            if tracer is not None:
                self.digest.update(b"\0" if result is None else wl.output_bytes(result))
                wl.after_traced_op(tracer, result)
                if i + 1 == wl.window_ops:
                    window = dict(tracer.counts)
            i += 1
            done = t_end >= deadline and i >= min_ops
            if calibrate:
                closing = done or t_end >= segment_end
                if t_end >= next_sample or (closing and not samples):
                    samples.append(reference_once_s())
                    next_sample = PERF() + REFERENCE_EVERY_S
                if closing:
                    self.segments.append((i, statistics.fmean(samples)))
                    samples = []
                    segment_end = PERF() + SEGMENT_S
            if done:
                return window

    def scaled_times(self) -> list[float]:
        """Operation times scaled by the machine's speed: each segment's
        host times times the speed factor of the reference samples taken
        during that segment."""
        from perfbench.reference import speed_factor
        out: list[float] = []
        start = 0
        for end, ref_s in self.segments:
            factor = speed_factor(ref_s)
            out.extend(t * factor for t in self.times[start:end])
            start = end
        return out


def warm_up(wl, loop: Loop) -> None:
    """Let caches fill and lazy set-up finish, on indices the timed
    region never uses. Then move every object that exists so far (the
    interpreter's modules, the harness, the workload's inputs) to the
    collector's permanent generation: a full collection scanned them in
    about 5 ms, which landed in about 0.8% of punches, right at their p99."""
    from perfbench.reference import reference_s
    from perfbench.workloads import WARMUP_BASE
    reference_s()
    deadline = PERF() + WARMUP_S
    i = 0
    while True:
        _, _, t_end = loop.one(WARMUP_BASE + i)
        i += 1
        if t_end >= deadline:
            break
    gc.collect()
    gc.freeze()


def timed_setup(workload: str, seed: int, workdir: str):
    """One set-up: imports, population and inputs. Returns the workload,
    the host set-up time and the reference time measured right after."""
    t0 = PERF()
    from perfbench import workloads
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.setup()
    host_s = PERF() - t0
    from perfbench.reference import reference_once, reference_s
    for _ in range(3):
        reference_once()
    return wl, host_s, reference_s()


def setup_repetitions(workload: str, seed: int, reps: int) -> list[tuple[float, float]]:
    """(host set-up s, reference s) of fresh interpreters that only set up."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repetition failed: {proc.stderr[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rep["setup_s"], rep["reference_s"]))
    return out


def end_to_end(wl, loop: Loop, setups: list[tuple[float, float]], peak_rss_mb: float):
    from perfbench import stats
    from perfbench.reference import speed_factor
    scaled = sorted(loop.scaled_times())
    host = sorted(loop.times)
    n = len(scaled)
    metrics = {
        "items_per_s": wl.items_per_op * n / sum(scaled),
        "op_ms_p50": stats.percentile(scaled, 50.0) * 1e3,
        "op_ms_tail": stats.percentile(scaled, wl.tail_pct) * 1e3,
        "setup_s": statistics.median(s * speed_factor(r) for s, r in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    refs = [r for _, r in loop.segments]
    detail = {
        "samples": n,
        "p50_beyond": stats.samples_beyond(n, 50.0),
        "tail_pct": wl.tail_pct,
        "tail_beyond": stats.samples_beyond(n, wl.tail_pct),
        "highest_with_10_beyond": stats.tail_percentile(n),
        "reference_s": {"median": statistics.median(refs), "min": min(refs),
                        "max": max(refs), "segments": len(refs)},
        "host": {"items_per_s": wl.items_per_op * n / sum(host),
                 "op_ms_p50": stats.percentile(host, 50.0) * 1e3,
                 "op_ms_tail": stats.percentile(host, wl.tail_pct) * 1e3,
                 "setup_s": statistics.median(s for s, _ in setups)},
        "setups": [{"host_s": s, "reference_s": r} for s, r in setups],
    }
    return metrics, detail


def run_traced(wl, loop: Loop, args, min_ops: int, workdir: str, detail: dict):
    """The traced timed region, then an untraced replay of the same
    operations. Returns (metrics, units, checks)."""
    from perfbench.layers import per_layer, unit_of
    from perfbench.tracer import Tracer, instrument, layer_self_times
    tracer = Tracer()
    instrument(tracer)
    try:
        tracer.open_root()
        window = loop.run(args.seconds, min_ops, tracer)
        tracer.close_root()
    finally:
        tracer.uninstall()
    n_ops = len(loop.times)
    # The untraced replay must give the same outputs; the time ratio is
    # the tracing overhead.
    replay = Loop(wl)
    for i in range(n_ops):
        result, elapsed, _ = replay.one(i)
        replay.times.append(elapsed)
        replay.digest.update(b"\0" if result is None else wl.output_bytes(result))
    spans = tracer.self_times()
    layer_sum = sum(layer_self_times(spans).values())
    root_s = tracer.root_duration()
    checks = {
        "trace.replay_outputs_match": replay.digest.hexdigest() == loop.digest.hexdigest(),
        "trace.self_times_sum_to_root": math.isclose(layer_sum, root_s, rel_tol=1e-9),
    }
    metrics = per_layer(wl, tracer, spans, window, n_ops, sum(loop.times), replay.times)
    counters = {k: window[k] for k in sorted(window)}
    detail.update(
        counters_window_ops=wl.window_ops, counters=counters,
        counters_sha256=hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()).hexdigest(),
        traced_ops=n_ops, root_s=root_s, layer_self_sum_s=layer_sum,
        missing_hooks=tracer.missing_hooks,
        spans={k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
               for k, v in sorted(spans.items())})
    tracer.dump(os.path.join(workdir, f"spans-{wl.name}"))
    return metrics, {k: unit_of(k) for k in metrics}, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "punchsim", "__init__.py")):
        print("error: src/punchsim not found; run from the root of a punchsim "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    sys.path[:0] = [os.path.join(root, "src"), root]
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    wl, setup_host_s, setup_ref_s = timed_setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_host_s, "reference_s": setup_ref_s}))
        return 0

    from perfbench import stats
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": run_metadata(root, loadavg)}
    loop = Loop(wl)
    warm_up(wl, loop)
    min_ops = max(wl.gate_ops, wl.window_ops, stats.min_samples(wl.tail_pct))
    if args.trace:
        metrics, units, checks = run_traced(wl, loop, args, min_ops, workdir, detail)
    else:
        loop.run(args.seconds, min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = {}
    digests, gate_checks = wl.gate()
    checks.update(gate_checks)
    if not args.trace:
        setups = [(setup_host_s, setup_ref_s)] + setup_repetitions(
            wl.name, args.seed, SETUP_REPS - 1)
        metrics, timing = end_to_end(wl, loop, setups, peak_rss_mb)
        units = {k: END_TO_END[k][0] for k in metrics}
        detail["timing"] = timing
    attempted, failed = loop.attempted, loop.failed
    correct = all(checks.values()) and failed == 0
    detail.update(digests=digests, checks=checks, attempted=attempted,
                  failed=failed, failed_share=stats.failure_share(failed, attempted),
                  errors=loop.errors, metrics=metrics)
    if hasattr(wl, "outcomes"):
        detail["outcomes"] = wl.outcomes
    report_path = os.path.join(workdir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print_human(wl, args, detail, metrics, units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def print_human(wl, args, detail, metrics, units) -> None:
    meta = detail["meta"]
    print(f"# punchsim benchmark: {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# git={meta['git_sha']} src_sha256={meta['src_sha256'][:16]} "
          f"src_lines={meta['src_lines']} python={meta['python']} nproc={meta['nproc']} "
          f"loadavg={meta['loadavg_at_start'][0]:.2f}")
    for err in detail["errors"]:
        print("# error in an operation:\n" + err, end="")
    if not args.trace:
        t = detail["timing"]
        aliases = {"items_per_s": f"{wl.item}_per_s",
                   "op_ms_p50": f"{wl.op_label}_ms_p50",
                   "op_ms_tail": f"{wl.op_label}_ms_p{wl.tail_pct:g}"}
        from perfbench.reference import REFERENCE_NOMINAL_S
        print(f"# times scaled to a reference of {REFERENCE_NOMINAL_S * 1e3:g} ms; it took "
              f"{t['reference_s']['median'] * 1e3:.3f} ms (median of "
              f"{t['reference_s']['segments']} segments)")
        for name, value in metrics.items():
            unit, better = END_TO_END[name]
            host = t["host"].get(name)
            note = f"  host {host:.6g}" if host is not None else ""
            if name == "op_ms_p50":
                note += f"  (n={t['samples']})"
            elif name == "op_ms_tail":
                note += (f"  (n={t['samples']}, {t['tail_beyond']} beyond; highest with "
                         f"10 beyond: p{t['highest_with_10_beyond']:g})")
            print(f"{name:14s} {aliases.get(name, name):18s} {value:14.6f} {unit:4s} "
                  f"{better:6s}{note}")
        print(f"{'failed_share':14s} {'':18s} {detail['failed_share']:14.6f} ratio "
              f"lower   ({detail['failed']}/{detail['attempted']})")
    else:
        for name, value in metrics.items():
            print(f"{name:34s} {value:16.6g} {units[name]}")
        print(f"# counters over the first {detail['counters_window_ops']} "
              f"{wl.op_label} operations: sha256 {detail['counters_sha256']}")
        if detail["missing_hooks"]:
            print(f"# hooks not found: {', '.join(detail['missing_hooks'])}")
    if "outcomes" in detail:
        print(f"# outcomes: {json.dumps(detail['outcomes'], sort_keys=True)}")
    for key, value in detail["digests"].items():
        print(f"# digest {key} {value}")
    for key, ok in detail["checks"].items():
        print(f"# check {key}: {'ok' if ok else 'FAILED'}")


if __name__ == "__main__":
    sys.exit(main())
