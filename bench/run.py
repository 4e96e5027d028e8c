#!/usr/bin/env python3
"""Benchmark for arenscalc.

    python3 bench/run.py --workload {report,words,classify,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a checkout and imports the package from its
``src`` directory.  Set-up (import plus input generation) runs
``SETUP_REPEATS`` times before the timed phase and as many after it, and
the median of all of them is reported.  The timed phase is a closed loop
with one client: it runs whole passes over the seeded operations, one at
a time, until ``--seconds`` have passed, and checks every outcome against
its known answer.  Set-up and timed phase run under a ``speed.SpeedProbe``,
and every time they report is scaled by it to seconds on a reference
host (see ``speed.py``); the raw times are printed and recorded too.
With ``--trace 0`` the last line of output carries the end-to-end
metrics; with ``--trace 1`` one traced pass follows the timed phase and
the last line carries per-function calls and self time (raw), suite
totals, the named work counts, interpreter start-up and the tracing
overhead.  Working files go to ``.bench_out`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 4
STARTUP_REPEATS = 5
MODULES = ("cli", "expr", "semantics", "tensor", "algebra", "derivation", "suites")

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402


class MissingPackage(Exception):
    pass


def load_package() -> dict:
    """Import arenscalc afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "arenscalc" / "__init__.py").is_file():
        raise MissingPackage(f"no arenscalc package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k.split(".")[0] == "arenscalc"]:
        del sys.modules[key]
    importlib.import_module("arenscalc.cli")
    pkg = {name: sys.modules[f"arenscalc.{name}"] for name in MODULES}
    if Path(pkg["cli"].__file__).resolve().parent != (src / "arenscalc").resolve():
        raise MissingPackage(f"arenscalc imported from {pkg['cli'].__file__}, not {src}")
    return pkg


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def timed_phase(wl, ops, seconds: float, probe) -> dict:
    """Whole passes over ``ops`` until ``seconds`` have passed; the scaled
    time of each operation and of each pass, each pass's raw time and
    scale, and failures.  Each pass is scaled by the probe's rounds
    during it; the rounds' own time is left out of every operation."""
    # arrays keep the samples out of the heap that peak_rss_mb measures
    latencies, passes, raw_passes, scales, failed = array("d"), [], [], [], 0
    clock = time.perf_counter
    start = clock()
    while True:
        since, times = probe.mark(), array("d")
        for op in ops:
            t0, spent = clock(), probe.spent
            raw = wl.timed(op)
            times.append(clock() - t0 - (probe.spent - spent))
            failed += not wl.check(op, raw)
        scale = probe.scale(since)
        latencies.extend(dt * scale for dt in times)
        raw_passes.append(sum(times))
        scales.append(scale)
        passes.append(raw_passes[-1] * scale)
        if clock() - start >= seconds and len(passes) >= wl.min_passes:
            return {"latencies": latencies, "passes": passes, "raw_passes": raw_passes,
                    "scales": scales, "failed": failed}


def tail(latencies) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its
    value; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def startup_ms(env) -> float:
    """Median wall time of a fresh interpreter running ``import arenscalc.cli``."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import arenscalc.cli"], cwd=ROOT, env=env,
                       check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1000


def traced_pass(wl, ops, seed: int) -> tuple[float, int, list]:
    """One pass with every wrapped function traced; returns its operation
    time, failures and the (spans, counts) of each traced process."""
    traces, failed, total = [], 0, 0.0
    if wl.name == "cli":
        trace_dir = OUT / f"trace-cli-{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        wl.launcher = [sys.executable, str(BENCH / "launcher.py")]
        for k, op in enumerate(ops):
            path = trace_dir / f"op-{k}.json"
            wl.env.update(ARENSBENCH_TRACE_OUT=str(path), ARENSBENCH_OP=str(k))
            t0 = time.perf_counter()
            raw = wl.timed(op)
            total += time.perf_counter() - t0
            failed += not wl.check(op, raw)
            data = json.loads(path.read_text(encoding="utf-8"))
            traces.append((data["spans"], data["counts"]))
        return total, failed, traces
    tr = tracing.Tracer()
    tr.install()
    try:
        for k, op in enumerate(ops):
            tr.op = k
            t0 = time.perf_counter()
            raw = wl.timed(op)
            total += time.perf_counter() - t0
            failed += not wl.check(op, raw)
    finally:
        tr.uninstall()
    tr.dump(OUT / f"trace-{wl.name}-{seed}.json")
    return total, failed, [(tr.spans, tr.counts)]


def set_up(workload: str, seed: int, samples: list[float], probe, inputs_hook=None):
    """Import the package afresh and build the workload's inputs,
    ``SETUP_REPEATS`` times, appending each scaled time to ``samples``."""
    for _ in range(SETUP_REPEATS):
        since, spent, t0 = probe.mark(), probe.spent, time.perf_counter()
        wl = WORKLOADS[workload](load_package(), OUT, ROOT)
        ops = wl.setup(seed)
        samples.append((time.perf_counter() - t0 - (probe.spent - spent)) * probe.scale(since))
    return wl, (ops if inputs_hook is None else inputs_hook(ops))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, inputs_hook=None) -> dict:
    # cli's children run on the benchmark's core, so the probe times theirs
    cpus = os.sched_getaffinity(0) if workload == "cli" else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        return measure(workload, seed, seconds, trace, inputs_hook)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def measure(workload: str, seed: int, seconds: float, trace: bool, inputs_hook) -> dict:
    OUT.mkdir(exist_ok=True)
    setup_samples: list[float] = []
    probe = speed.SpeedProbe().start()
    try:
        wl, ops = set_up(workload, seed, setup_samples, probe, inputs_hook)
        phase = timed_phase(wl, ops, seconds, probe)
        # set up again after the timed phase, so that the reported median is
        # not taken from a single moment of a machine whose speed drifts
        fresh = set_up(workload, seed, setup_samples, probe, inputs_hook)
    finally:
        probe.stop()
    lat, passes = phase["latencies"], phase["passes"]
    attempted, failed = len(lat), phase["failed"]
    failed += getattr(wl, "post_check", lambda ops: 0)(ops)
    summary = wl.summary(ops)
    extras = {"failed_ratio": (failed / attempted, "ratio")}
    if workload == "classify":
        extras["decided_ratio"] = (wl.decided_ratio(ops), "ratio")
    raw_wall_s = statistics.median(phase["raw_passes"])
    extras["raw_wall_s"] = (raw_wall_s, "s")
    extras["speed_scale"] = (statistics.median(phase["scales"]), "ratio")
    wl, ops = fresh  # the traced pass runs on the last import
    wall_s = statistics.median(passes)
    tail_pct, tail_s = tail(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_per_s": (len(ops) / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }

    if trace:
        traced_s, traced_failed, traces = traced_pass(wl, ops, seed)
        attempted += len(ops)
        failed += traced_failed
        layer = tracing.summarize(traces)
        layer["cli.startup_ms"] = startup_ms(child_env(ROOT))
        layer["trace.overhead_s"] = traced_s - raw_wall_s
        layer["trace.spans"] = sum(len(spans) for spans, _ in traces)
        extras["traced_wall_s"] = (traced_s, "s")
        extras["failed_ratio"] = (failed / attempted, "ratio")
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "passes": len(passes),
        "pass_s": passes,
        "raw_pass_s": phase["raw_passes"],
        "pass_scale": phase["scales"],
        "speed_probe": probe.summary(),
        "latency_samples": len(lat),
        "latency_tail_percentile": round(tail_pct, 3),
        "setup_samples_s": setup_samples,
        "inputs": summary,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"result": result, "extras": extras, "meta": meta}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("per_realize"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in record["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in record["extras"].items():
        print(f"{name} {value!r} {unit}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
