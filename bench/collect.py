#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads words,classify --seeds 1-10 \
        --seconds 20 [--trace 0] [--out summary.json]

Each run is a separate ``bench/run.py`` process, as a harness would start
it.  For every workload and metric this prints the median, the quartiles
and their distance as a share of the median (the run-to-run spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True, timeout=900,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="report,words,classify,cli")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        values: dict[str, list[float]] = {}
        for res in results:
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        summary[workload] = {
            "failed": sum(res["failed"] for res in results),
            "attempted": sum(res["attempted"] for res in results),
            "metrics": {name: dict(summarize(v), unit=units[name]) for name, v in values.items()},
        }
        for name, s in summary[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:9s} {name:44s} median {s['median']:.6g} {s['unit']:6s} spread {spread}",
                  flush=True)
        print(f"{workload:9s} failed {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "trace": args.trace, "workloads": summary},
                                       indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
