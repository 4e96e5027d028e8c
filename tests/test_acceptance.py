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


def _failing(rows):
    return [(name, detail) for name, ok, detail in rows if not ok]


def test_criterion_1_limit_order_golden_table():
    start = time.perf_counter()
    _, rows = run_limit_order_goldens()
    elapsed = time.perf_counter() - start
    assert len(rows) == 6
    assert not _failing(rows), _failing(rows)
    assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"


def test_criterion_2_symbolic_suite():
    _, rows = run_symbolic_suite()
    assert len(rows) == 7
    assert not _failing(rows), _failing(rows)


def test_criterion_3_extension_sweep_100_random_tensors():
    start = time.perf_counter()
    _, rows = run_extension_sweep(seed=0, trials=100)
    elapsed = time.perf_counter() - start
    assert not _failing(rows), _failing(rows)
    assert rows[0][2] == "100/100 trials"
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


def test_criterion_4_proof_chain_identities():
    _, rows = run_chain_suite(seed=1, instances=25)
    assert not _failing(rows), _failing(rows)
    assert len(rows) == 17
    for name, _, detail in rows:
        assert detail == "25/25 instances", (name, detail)


def test_criterion_5_factorization_suite():
    _, rows = run_factorization_suite(seed=2, instances=25)
    assert not _failing(rows), _failing(rows)
    assert len(rows) == 5
    for name, _, detail in rows:
        assert detail == "25/25 instances", (name, detail)


def test_criterion_6_slice_bridge_and_nested_constraint():
    _, bridge = run_slice_bridge_suite(seed=3, pairs=25)
    assert not _failing(bridge), _failing(bridge)
    for name, _, detail in bridge:
        assert detail == "25/25 pairs", (name, detail)
    _, nested = run_nested_bilinear_cases(seed=4)
    assert not _failing(nested), _failing(nested)
    names = [name for name, _, _ in nested]
    assert "zero inner map accepted" in names
    assert "nonlinear scalar candidate rejected" in names


def test_criterion_7_group_fixtures_completely_regular():
    _, rows = run_group_fixture_suite()
    assert not _failing(rows), _failing(rows)
    assert len(rows) == 8
    start = time.perf_counter()
    _, s3_only = run_group_fixture_suite(("s3",))
    elapsed = time.perf_counter() - start
    assert not _failing(s3_only), _failing(s3_only)
    assert elapsed < 5.0, f"s3 checks took {elapsed:.2f}s"


def test_criterion_8_derivation_suite():
    _, rows = run_derivation_suite()
    assert not _failing(rows), _failing(rows)

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
    _, rows = run_adjoint_pairing(seed=5, instances=200)
    assert not _failing(rows), _failing(rows)
    assert rows[0][2] == "200/200 instances"
