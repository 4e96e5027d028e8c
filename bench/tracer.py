"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces each public function listed in ``TARGETS``
with a wrapper in every ``arenscalc`` module namespace that holds it
(modules bind names at import, so ``suites`` calls its own binding of
``evaluate``), and on the class for methods.  Each call appends one span
``[name, start, end, parent, op]`` to an in-memory list; nothing is
written until ``dump``.  ``uninstall`` restores the originals, so an
untraced run executes the package's own functions and records nothing.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

TARGETS = {
    "expr": ("parse", "signature_of"),
    "semantics": ("classify", "axis_semantics", "limit_order"),
    "tensor": (
        "realize", "adjoint", "flip", "transpose", "evaluate", "equal",
        "from_function", "random_map", "compose_into_slot", "compose_codomain",
        "slice_slot", "load_map", "save_map",
    ),
    "algebra": (
        "group_algebra", "truncated_poly_algebra", "matrix_algebra",
        "AlgebraModel.validate", "BanachModuleModel.validate",
        "regularity_check", "slice_bridge_check", "nested_bilinear_check",
    ),
    "derivation": (
        "derivation_fixture", "is_tri_derivation", "right_action_composite",
        "dual_action_composite", "composite_extension_checks",
        "fourth_adjoint_check",
    ),
    "suites": (
        "run_limit_order_goldens", "run_symbolic_suite", "run_extension_sweep",
        "run_chain_suite", "run_factorization_suite", "run_slice_bridge_suite",
        "run_nested_bilinear_cases", "run_group_fixture_suite",
        "run_derivation_suite", "run_adjoint_pairing", "render_report",
    ),
}
VERDICT_KINDS = ("UNCOND-EQUAL", "EQUAL-IFF", "DISTINCT", "NOT-COMPARABLE")
COUNT_NAMES = (
    "tensor.realize.ops",
    "tensor.transpose.entries",
    "tensor.transpose.per_realize",
    "tensor.evaluate.coeffs",
    "tensor.equal.entries",
    "tensor.equal.mismatches",
) + tuple(f"semantics.classify.{kind}" for kind in VERDICT_KINDS)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _first_mismatch_position(report, shape) -> int:
    flat = 0
    for size, i in zip(shape, report.first_mismatch[0]):
        flat = flat * size + i
    return flat


def _count(counts: Counter, name: str, args, result) -> None:
    """Work counts measured where the work happens."""
    if name == "tensor.realize":
        counts["tensor.realize.ops"] += len(args[0].ops)
    elif name == "tensor.transpose":
        counts["tensor.transpose.entries"] += len(args[0].entries)
    elif name == "tensor.evaluate":
        counts["tensor.evaluate.coeffs"] += len(args[0].entries)
    elif name == "tensor.equal":
        left = args[0]
        if result.equal:
            counts["tensor.equal.entries"] += len(left.entries)
        else:
            counts["tensor.equal.entries"] += _first_mismatch_position(result, left.shape) + 1
            counts["tensor.equal.mismatches"] += 1
    elif name == "semantics.classify":
        counts[f"semantics.classify.{result.kind}"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(counts, name, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "arenscalc"]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"arenscalc.{mod_name}"]
            for qual in fns:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(f"{mod_name}.{qual}", original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{mod_name}.{qual}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(traces) -> dict[str, float]:
    """Per-function calls and self time, suite totals and the named counts,
    summed over ``(spans, counts)`` pairs (one pair per process)."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    counts: Counter = Counter()
    transposes_in_realize = 0
    for spans, trace_counts in traces:
        counts.update(trace_counts)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent, _op) in enumerate(spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_time[k]
            if name == "tensor.transpose":
                while parent >= 0 and spans[parent][0] != "tensor.realize":
                    parent = spans[parent][3]
                transposes_in_realize += parent >= 0
    realizes = calls["tensor.realize"]
    counts["tensor.transpose.per_realize"] = transposes_in_realize / realizes if realizes else 0.0
    out: dict[str, float] = {}
    for name in span_names():
        if name.startswith("suites."):
            out[f"{name}.total_s"] = total_s[name]
        else:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
    for name in COUNT_NAMES:
        out[name] = counts[name]
    return out
