"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` for one pass or fail line per
criterion.  Every numeric comparison in these suites is exact rational
equality; no tolerances.  Wall-clock bounds are asserted where the
criterion carries one.
"""

from __future__ import annotations

import time

from arenscalc.derivation import (
    composite_extension_checks,
    derivation_fixture,
    fourth_adjoint_check,
    is_tri_derivation,
)
from arenscalc.suites import (
    run_adjoint_pairing,
    run_chain_suite,
    run_derivation_suite,
    run_extension_sweep,
    run_factorization_suite,
    run_group_fixture_suite,
    run_limit_order_goldens,
    run_nested_bilinear_cases,
    run_slice_bridge_suite,
    run_symbolic_suite,
)


def _failing(section):
    return [(r.name, r.detail) for r in section.rows if not r.passed]


def test_criterion_1_limit_order_golden_table():
    start = time.perf_counter()
    section = run_limit_order_goldens()
    elapsed = time.perf_counter() - start
    assert len(section.rows) == 6
    assert section.passed, _failing(section)
    assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"


def test_criterion_2_symbolic_suite():
    section = run_symbolic_suite()
    assert len(section.rows) == 7
    assert section.passed, _failing(section)


def test_criterion_3_extension_sweep_100_random_tensors():
    start = time.perf_counter()
    section = run_extension_sweep(seed=0, trials=100)
    elapsed = time.perf_counter() - start
    assert section.passed, _failing(section)
    assert section.rows[0].detail == "100/100 trials"
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_criterion_4_proof_chain_identities():
    section = run_chain_suite(seed=1, instances=25)
    assert section.passed, _failing(section)
    assert len(section.rows) == 17
    for row in section.rows:
        assert row.detail == "25/25 instances", (row.name, row.detail)


def test_criterion_5_factorization_suite():
    section = run_factorization_suite(seed=2, instances=25)
    assert section.passed, _failing(section)
    assert len(section.rows) == 5
    for row in section.rows:
        assert row.detail == "25/25 instances", (row.name, row.detail)


def test_criterion_6_slice_bridge_and_nested_constraint():
    bridge = run_slice_bridge_suite(seed=3, pairs=25)
    assert bridge.passed, _failing(bridge)
    for row in bridge.rows:
        assert row.detail == "25/25 pairs", (row.name, row.detail)
    nested = run_nested_bilinear_cases(seed=4)
    assert nested.passed, _failing(nested)
    names = [r.name for r in nested.rows]
    assert "zero inner map accepted" in names
    assert "nonlinear scalar candidate rejected" in names


def test_criterion_7_group_fixtures_completely_regular():
    section = run_group_fixture_suite()
    assert section.passed, _failing(section)
    assert len(section.rows) == 8
    start = time.perf_counter()
    s3_only = run_group_fixture_suite(("s3",))
    elapsed = time.perf_counter() - start
    assert s3_only.passed, _failing(s3_only)
    assert elapsed < 5.0, f"s3 checks took {elapsed:.2f}s"


def test_criterion_8_derivation_suite():
    section = run_derivation_suite()
    assert section.passed, _failing(section)

    for name in ("zero", "poly3-euler"):
        cand = derivation_fixture(name)
        assert is_tri_derivation(cand).holds
        fourth = fourth_adjoint_check(cand)
        assert all(ok for _, ok, _ in fourth), [l for l, ok, _ in fourth if not ok]
        items = composite_extension_checks(cand)
        assert all(ok for _, ok, _ in items), [l for l, ok, _ in items if not ok]
        labels = [l for l, _, _ in items]
        for needle in ("item 1", "item 2", "item 3", "item 4"):
            assert any(needle in l for l in labels), needle

    rejected = is_tri_derivation(derivation_fixture("matrix2-inner"))
    assert not rejected.holds
    assert rejected.first_slot == (0, 0, 0, 3)


def test_criterion_9_adjoint_pairing_200_instances():
    section = run_adjoint_pairing(seed=5, instances=200)
    assert section.passed, _failing(section)
    assert section.rows[0].detail == "200/200 instances"
