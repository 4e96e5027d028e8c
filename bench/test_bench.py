"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Each test runs a workload for a single pass (``seconds=0``); the report
workload still renders two full reports, so the file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def metric_units(record) -> dict:
    return {name: m["unit"] for name, m in record["result"]["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    record = run.run_benchmark(workload, seed=3, seconds=0, trace=False)
    assert metric_units(record) == END_TO_END
    assert all(m["value"] > 0 for m in record["result"]["metrics"].values())
    assert record["result"]["correct"] and record["result"]["failed"] == 0


def test_traced_run_emits_every_layer_metric_and_counts_repeat():
    first = run.run_benchmark("classify", seed=5, seconds=0, trace=True)
    second = run.run_benchmark("classify", seed=5, seconds=0, trace=True)
    assert metric_units(first) == PER_LAYER
    counts = [
        {k: m["value"] for k, m in rec["result"]["metrics"].items() if m["unit"] == "count"}
        for rec in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["semantics.classify.calls"] > 0
    assert counts[0]["tensor.evaluate.calls"] == 0


def test_words_counts_measure_the_realize_waste():
    metrics = run.run_benchmark("words", seed=2, seconds=0, trace=True)["result"]["metrics"]
    pairs = metrics["tensor.equal.calls"]["value"]
    assert metrics["tensor.realize.calls"]["value"] == 2 * pairs
    assert metrics["tensor.transpose.per_realize"]["value"] > 1
    assert metrics["tensor.equal.mismatches"]["value"] == pairs // 4


def _corrupt_first(field, value, where=lambda op: True):
    def hook(ops):
        k = next(i for i, op in enumerate(ops) if where(op))
        return ops[:k] + [dataclasses.replace(ops[k], **{field: value})] + ops[k + 1:]
    return hook


@pytest.mark.parametrize(
    "workload, hook",
    [
        ("words", _corrupt_first("mismatch", ((0, 0), "1", "2"), lambda p: p.mismatch is None)),
        ("classify", _corrupt_first("expect", "DISTINCT", lambda p: p.expect == "UNCOND-EQUAL")),
        ("cli", _corrupt_first("rc", 0, lambda inv: inv.rc == 2)),
    ],
)
def test_corrupted_expected_answer_is_caught(workload, hook):
    record = run.run_benchmark(workload, seed=4, seconds=0, trace=False, inputs_hook=hook)
    assert record["result"]["failed"] >= 1
    assert record["extras"]["failed_ratio"][0] > 0
    assert not record["result"]["correct"]


def test_tracing_off_records_no_spans():
    trace_file = run.OUT / "trace-classify-6.json"
    trace_file.unlink(missing_ok=True)
    record = run.run_benchmark("classify", seed=6, seconds=0, trace=False)
    assert not trace_file.exists()
    assert set(record["result"]["metrics"]) == set(END_TO_END)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "arenscalc":
            assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values()), key


def test_tracer_restores_every_binding():
    run.load_package()
    before = {k: dict(vars(m)) for k, m in sys.modules.items() if k.split(".")[0] == "arenscalc"}
    tr = tracer.Tracer()
    tr.install()
    wrapped = sum(hasattr(getattr(sys.modules["arenscalc." + mod], name, None), "__wrapped__")
                  for mod, names in tracer.TARGETS.items() for name in names)
    tr.uninstall()
    assert wrapped == sum(len(names) for names in tracer.TARGETS.values()) - 2  # two methods
    after = {k: dict(vars(m)) for k, m in sys.modules.items() if k.split(".")[0] == "arenscalc"}
    assert before == after
    assert tr.spans == []


def test_speed_probe_scales_by_its_rounds_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe().start()
    since = probe.mark()
    time.sleep(0.2)
    scale = probe.scale(since)
    probe.stop()
    rounds = probe.rounds[since:]
    assert len(rounds) >= 3
    assert scale == pytest.approx(speed.REFERENCE_S / statistics.fmean(rounds))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
