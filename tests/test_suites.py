from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc import algebra, semantics, suites, tensor
from arenscalc.derivation import tally_rows
from arenscalc.expr import ExprAst, parse
from arenscalc.suites import (
    CHAIN_GROUPS,
    GOLDEN_ORDERS,
    full_suite,
    render_report,
    run_chain_suite,
    run_extension_sweep,
    run_factorization_suite,
    run_adjoint_pairing,
    run_group_fixture_suite,
    run_slice_bridge_suite,
)
from arenscalc.semantics import EXTENSION_FLIPS
from arenscalc.tensor import equal, prepared, random_map, realize, vector


def test_catalog_is_well_formed():
    assert len(GOLDEN_ORDERS) == 6
    total = sum(len(pairs) for _, pairs in CHAIN_GROUPS)
    assert total == 17
    for _, pairs in CHAIN_GROUPS:
        for lhs, rhs in pairs:
            assert parse(lhs).base == "f"
            assert parse(rhs).base == "f"


def test_render_report_escapes_pipes():
    section = ("demo", (("name|with pipe", True, "detail|pipe"),))
    text = render_report((section,), "Configuration: demo.")
    assert "name\\|with pipe" in text
    assert "detail\\|pipe" in text
    # table rows keep exactly three payload columns
    row_line = [ln for ln in text.splitlines() if "name" in ln][0]
    assert row_line.count(" | ") == 2


def test_render_report_counts_failures():
    section = ("demo", (("good", True, ""), ("bad", False, "boom")))
    text = render_report((section,), "cfg")
    assert "Summary: 2 checks, 1 FAILED." in text
    assert "| bad | FAIL | boom |" in text


def test_full_suite_section_order_is_stable():
    sections = full_suite(seed=0, trials=2, instances=1, dims=(2, 2, 2, 2))
    titles = [title for title, _ in sections]
    assert titles == [
        "Limit orders of the six extensions",
        "Symbolic classifier",
        "Six-extension sweep on random tensors",
        "Proof-chain identities",
        "Factorization through a linear map",
        "Bilinear slice bridge",
        "Nested bilinear constraint",
        "Finite group convolution (complete regularity)",
        "Tri-derivations and the fourth adjoint",
        "Adjoint pairing identity",
    ]
    assert all(ok for _, rows in sections for _, ok, _ in rows)


def _break_s_extension(monkeypatch):
    """Make f^{s****t} disagree with the other extensions, in entry 0,
    on maps whose first input has dimension 3: in every binding of the
    prepared table that folds it, the suites' own and ``algebra``'s."""

    def broken(fold):
        def apply(m):
            out = fold(m)
            if out.name.endswith("^{s****t}") and m.input_dims[0] == 3:
                out = dataclasses.replace(out, entries=(out.entries[0] + 1,) + out.entries[1:])
            return out

        return apply

    for module in (suites, algebra):
        monkeypatch.setattr(module, "prepared", lambda word, arity: broken(prepared(word, arity)))


def test_sweep_failure_detail_is_pinned(monkeypatch):
    _break_s_extension(monkeypatch)
    _, (row,) = run_extension_sweep(0, trials=6)
    assert row == (
        "all six realized extensions coincide",
        False,
        "4/6 trials; first failure: trial 2: "
        "FAIL  f^{i****i} != f^{s****t} at index [0, 0, 0, 0]: 2 vs 3",
    )


def test_chain_failure_details_are_pinned(monkeypatch):
    _break_s_extension(monkeypatch)
    _, rows = run_chain_suite(1, instances=4)
    assert len(rows) == 17
    failed = [row for row in rows if not row[1]]
    assert failed == [
        (
            "[close-to-regular criteria] f^{s****t} = f^{t****s}",
            False,
            "instance 0: FAIL  f^{s****t} != f^{t****s} at index [0, 0, 0, 0]: 4 vs 3",
        ),
        (
            "[limit interchange] f^{****} = f^{s****t}",
            False,
            "instance 2: FAIL  f^{****} != f^{s****t} at index [0, 0, 0, 0]: 7 vs 8",
        ),
    ]
    assert all(detail == "4/4 instances" for _, ok, detail in rows if ok)


def test_sweep_failure_detail_at_fixed_dims_is_pinned(monkeypatch):
    _break_s_extension(monkeypatch)
    _, (row,) = run_extension_sweep(0, trials=6, dims=(3, 2, 2, 2))
    assert row == (
        "all six realized extensions coincide",
        False,
        "0/6 trials; first failure: trial 0: "
        "FAIL  f^{i****i} != f^{s****t} at index [0, 0, 0, 0]: 9 vs 10",
    )


def test_chain_failure_details_at_fixed_dims_are_pinned(monkeypatch):
    _break_s_extension(monkeypatch)
    _, rows = run_chain_suite(1, instances=4, dims=(3, 2, 2, 2))
    assert len(rows) == 17
    failed = [row for row in rows if not row[1]]
    assert failed == [
        (
            "[close-to-regular criteria] f^{s****t} = f^{t****s}",
            False,
            "instance 0: FAIL  f^{s****t} != f^{t****s} at index [0, 0, 0, 0]: 8 vs 7",
        ),
        (
            "[limit interchange] f^{****} = f^{s****t}",
            False,
            "instance 0: FAIL  f^{****} != f^{s****t} at index [0, 0, 0, 0]: -5 vs -4",
        ),
    ]
    assert all(detail == "4/4 instances" for _, ok, detail in rows if ok)


def test_chain_suite_folds_each_word_once(monkeypatch):
    calls = []
    real = semantics.axis_semantics

    def counting(expr, base_arity=3):
        calls.append(expr)
        return real(expr, base_arity)

    prepared.cache_clear()
    monkeypatch.setattr(semantics, "axis_semantics", counting)
    _, rows = run_chain_suite(1, instances=4)
    assert all(ok for _, ok, _ in rows)
    words = {word for _, pairs in CHAIN_GROUPS for pair in pairs for word in pair}
    assert len(calls) == len(words)  # once per distinct word, not per side or instance


def _break_codomain_compositions(monkeypatch):
    """Make ``compose_codomain`` wrong, in its entry 0, on every map it
    composes whose true entry 0 is a multiple of 5, whether that map is
    composed alone or as one instance of a stack."""
    real = tensor.compose_codomain

    def broken(post, m):
        out = real(post, m)
        size, entries = len(out.entries) // out.instances, list(out.entries)
        for k in range(0, len(entries), size):
            if entries[k] % 5 == 0:
                entries[k] += 1
        return dataclasses.replace(out, entries=tuple(entries))

    monkeypatch.setattr(suites, "compose_codomain", broken)


def test_factorization_failure_details_are_pinned(monkeypatch):
    _break_codomain_compositions(monkeypatch)
    _, rows = run_factorization_suite(4, instances=6)
    assert rows == (
        (
            "single-sided factor identity",
            False,
            "FAIL  f^{t*****} != h^{***}.g^{t*****} at index [0, 0, 0, 0]: -10 vs -9",
        ),
        ("single-sided pointwise form", True, "6/6 instances"),
        (
            "two-sided first identity",
            False,
            "FAIL  f^{*****} != h2^{***}.K^{*****} at index [0, 0, 0, 0]: -120 vs -119",
        ),
        (
            "two-sided second identity",
            False,
            "FAIL  f^{******} != h1^{***}.g^{******} at index [0, 0, 0, 0]: -120 vs -119",
        ),
        ("two-sided construction consistency", True, "6/6 instances"),
    )


def test_factorization_failure_details_at_fixed_dims_are_pinned(monkeypatch):
    _break_codomain_compositions(monkeypatch)
    # instance 0 passes every identity; the factor identity first fails at
    # instance 3, the two-sided identities at instance 1
    _, rows = run_factorization_suite(2, instances=6, dims=(3, 2, 2, 2))
    assert rows == (
        (
            "single-sided factor identity",
            False,
            "FAIL  f^{t*****} != h^{***}.g^{t*****} at index [0, 0, 0, 0]: 5 vs 6",
        ),
        ("single-sided pointwise form", True, "6/6 instances"),
        (
            "two-sided first identity",
            False,
            "FAIL  f^{*****} != h2^{***}.K^{*****} at index [0, 0, 0, 0]: 135 vs 136",
        ),
        (
            "two-sided second identity",
            False,
            "FAIL  f^{******} != h1^{***}.g^{******} at index [0, 0, 0, 0]: 135 vs 136",
        ),
        ("two-sided construction consistency", True, "6/6 instances"),
    )


def test_factorization_suite_composes_once_per_role(monkeypatch):
    calls = []
    real = tensor.compose_into_slot

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (suites, tensor):  # compose_codomain composes through tensor's own name
        monkeypatch.setattr(module, "compose_into_slot", counting)
    counts = []
    for instances in (1, 4):
        calls.clear()
        _, rows = run_factorization_suite(2, instances=instances, dims=(2, 3, 2, 1))
        assert all(ok for _, ok, _ in rows)
        counts.append(len(calls))
    assert counts == [9, 9]  # six compositions and three through compose_codomain


def test_second_full_suite_folds_only_in_classify_and_limit_order(monkeypatch):
    full_suite()
    callers = Counter()
    real = semantics.axis_semantics

    def counting(expr, base_arity=3):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(expr, base_arity)

    monkeypatch.setattr(semantics, "axis_semantics", counting)
    assert all(ok for _, rows in full_suite() for _, ok, _ in rows)
    # every word of the package is prepared already, so no realizer folds;
    # limit_order folds the leading flips of each canonical extension it reads
    assert callers == {"classify": 34, "limit_order": 60}


def test_full_suite_validates_none_of_its_own_fixtures(monkeypatch):
    # the package's fixtures are checked in the tests, not in every report
    calls = {}
    for cls in (algebra.AlgebraModel, algebra.BanachModuleModel):
        calls[cls.__name__] = 0

        def counting(self, real=cls.validate, key=cls.__name__):
            calls[key] += 1
            return real(self)

        monkeypatch.setattr(cls, "validate", counting)
    assert all(ok for _, rows in full_suite() for _, ok, _ in rows)
    assert calls == {"AlgebraModel": 0, "BanachModuleModel": 0}


def test_full_suite_builds_fractions_only_for_its_one_witness(monkeypatch):
    # kernel results, draws and their realizations hold integer lanes and
    # compare as ints; the only Fractions built from lanes are the two values
    # of the rejected nonlinear scalar candidate's message (while kernel
    # results built their entries at once: 55 lists of 17 816 values)
    built = []
    real = tensor._fractions

    def counting(ints, den):
        built.append(len(ints))
        return real(ints, den)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arenscalc":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    assert tensor._fractions is counting
    assert all(ok for _, rows in full_suite(dims=(2, 2, 2, 2)) for _, ok, _ in rows)
    assert built == [1, 1]


def test_full_suite_runs_without_the_step_by_step_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("the adjoint/flip oracle was called outside the tests")

    oracle = (tensor.adjoint, tensor.flip)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "arenscalc":
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in oracle):
                    monkeypatch.setattr(module, attr, refuse)
    assert tensor.adjoint is refuse and tensor.flip is refuse
    sections = full_suite(seed=0, trials=2, instances=1, dims=(2, 2, 2, 2))
    assert all(ok for _, rows in sections for _, ok, _ in rows)


def test_group_failure_detail_is_pinned(monkeypatch):
    _break_s_extension(monkeypatch)
    _, rows = run_group_fixture_suite()
    assert [name for name, ok, _ in rows if not ok] == ["z3: six extensions coincide"]
    assert rows[2][2] == (
        "FAIL  conv3^{i****i} != conv3^{s****t} at index [0, 0, 0, 0]: 1 vs 2"
    )
    assert rows[0] == ("z2: six extensions coincide", True, "")


def _break_adjoint(monkeypatch):
    """Make the suites' ``f^{*}`` wrong on every map of arity 2 or 3: at
    arity 2 its entries come out reversed (the right values in the wrong
    order), at arity 3 its last entry is one too large."""

    def broken(word, arity):
        fold = prepared(word, arity)

        def apply(m):
            out = fold(m)
            if m.arity == 2:
                return dataclasses.replace(out, entries=out.entries[::-1])
            if m.arity == 3:
                return dataclasses.replace(out, entries=out.entries[:-1] + (out.entries[-1] + 1,))
            return out

        return apply

    monkeypatch.setattr(suites, "prepared", broken)


def test_pairing_failure_details_are_pinned(monkeypatch):
    _break_adjoint(monkeypatch)
    # at seed 7 the instances of arity 1 are 1, 6, 13, 14 and 16; every
    # other instance fails, and the detail lists the first five
    assert run_adjoint_pairing(7, instances=20) == ("Adjoint pairing identity", (
        ("pairing identity on all basis tuples", False,
         "5/20 instances; failing instances: 0, 2, 3, 4, 5"),
    ))
    _, (row,) = run_adjoint_pairing(7, instances=4, dims=(3, 1, 2, 2))
    assert row[1:] == (False, "1/4 instances; failing instances: 0, 1, 3")


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` into the returned list."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_pairing_realizes_the_adjoint_once_per_shape(monkeypatch):
    applied = []

    def counting(word, arity):
        fold = prepared(word, arity)
        return lambda m: applied.append(m.instances) or fold(m)

    monkeypatch.setattr(suites, "prepared", counting)
    _, (row,) = run_adjoint_pairing(5, dims=(2, 2, 2, 2))
    assert row == ("pairing identity on all basis tuples", True, "200/200 instances")
    assert sorted(applied) == [59, 65, 76]  # one stack per arity, all of shape 2x...x2
    applied.clear()
    assert run_adjoint_pairing(5, instances=40)[1][0][1]
    assert sum(applied) == 40 and len(applied) < 40  # one stack per shape drawn


def _bridge_rows_pair_by_pair(seed, pairs, dims):
    """The slice bridge section restated: the suite's draws (each map, then
    its functional), one ``slice_bridge_check`` per pair."""
    rng, results = random.Random(seed), []
    for _ in range(pairs):
        dx, dy, dz, dw = suites._pick_dims(rng, 4, dims)
        f = random_map(3, (dx, dy, dz), dw, seed=rng.randrange(1 << 30))
        wstar = vector(tuple(rng.randint(-9, 9) for _ in range(f.codomain_dim)))
        results += algebra.slice_bridge_check(f, wstar)[1]
    return "Bilinear slice bridge", tuple(tally_rows(results, f"{pairs}/{pairs} pairs"))


@pytest.mark.parametrize("word", ["f^{s*}", "f^{s******}", "f^{r****r}"])
def test_slice_bridge_suite_gives_the_pair_by_pair_rows(monkeypatch, perturb_realized, word):
    calls, dims = _counting(monkeypatch, suites, "slice_bridge_check"), (2, 2, 2, 2)
    assert run_slice_bridge_suite(3, 6, dims) == _bridge_rows_pair_by_pair(3, 6, dims)
    assert [f.instances for f, _ in calls] == [6]  # one stack, one functional per instance
    calls.clear()
    perturb_realized(word)
    got = run_slice_bridge_suite(3, 6, dims)
    assert got == _bridge_rows_pair_by_pair(3, 6, dims)
    assert [ok for _, ok, _ in got[1]].count(False) == 1
    assert [f.instances for f, _ in calls] == [6, 1, 1, 1, 1, 1, 1]  # the stack, then each pair


def test_slice_bridge_suite_checks_mixed_shapes_pair_by_pair(monkeypatch):
    calls = _counting(monkeypatch, suites, "slice_bridge_check")
    assert run_slice_bridge_suite(3, 8) == _bridge_rows_pair_by_pair(3, 8, None)
    assert len(calls) == 8 and all(f.instances == 1 for f, _ in calls)


def _tri_single(rng, dims):
    """The suites' next tri-linear draw as one map: dims picked, then a seed."""
    dx, dy, dz, dw = suites._pick_dims(rng, 4, dims)
    return random_map(3, (dx, dy, dz), dw, seed=rng.randrange(1 << 30))


def _sweep_trial_by_trial(seed, trials, dims):
    rng, failures = random.Random(seed), []
    for k in range(trials):
        first, *others = algebra.extensions(_tri_single(rng, dims), EXTENSION_FLIPS).values()
        reps = [rep for rep in (equal(first, other) for other in others) if not rep.equal]
        failures += [f"trial {k}: {rep.render()}" for rep in reps[:1]]
    detail = f"{trials - len(failures)}/{trials} trials"
    detail += "; first failure: " + failures[0] if failures else ""
    return "Six-extension sweep on random tensors", (
        ("all six realized extensions coincide", not failures, detail),
    )


def _chain_instance_by_instance(seed, instances, dims):
    rng, rows = random.Random(seed), []
    for group, pairs in CHAIN_GROUPS:
        for lhs, rhs in pairs:
            bad = []
            for k in range(instances):
                f = _tri_single(rng, dims)
                rep = equal(realize(parse(lhs), f), realize(parse(rhs), f))
                bad += [] if rep.equal else [f"instance {k}: {rep.render()}"]
            rows.append((f"[{group}] {lhs} = {rhs}", not bad,
                         bad[0] if bad else f"{instances}/{instances} instances"))
    return "Proof-chain identities", tuple(rows)


_FACTOR_LABELS = (
    "single-sided factor identity",
    "single-sided pointwise form",
    "two-sided first identity",
    "two-sided second identity",
    "two-sided construction consistency",
)


def _factorization_instance_by_instance(seed, instances, dims):
    rng, results = random.Random(seed), []
    t5, t4s, a5, a6, h3 = (parse(w) for w in
                           ("f^{t*****}", "f^{t****s}", "f^{*****}", "f^{******}", "h^{***}"))
    compose, post = tensor.compose_into_slot, tensor.compose_codomain
    for _ in range(instances):
        dx, dy, dz, dw, ds = suites._pick_dims(rng, 5, dims)
        g, h, core, h1, h2 = (
            random_map(arity, in_dims, cod, seed=rng.randrange(1 << 30), name=name)
            for arity, in_dims, cod, name in (
                (3, (dx, ds, dz), dw, "g"), (1, (dy,), ds, "h"), (3, (dx, ds, ds), dw, "c"),
                (1, (dy,), ds, "h1"), (1, (dz,), ds, "h2"))
        )
        f, gg = compose(g, h, 2, name="f"), compose(core, h2, 3, name="g")
        kk, f2 = compose(core, h1, 2, name="K"), compose(gg, h1, 2, name="f")
        reps = (
            equal(realize(t5, f), post(realize(h3, h), realize(t5, g))),
            equal(realize(t4s, f), compose(realize(t4s, g), h, 2)),
            equal(realize(a5, f2), post(realize(h3, h2), realize(a5, kk))),
            equal(realize(a6, f2), post(realize(h3, h1), realize(a6, gg))),
            equal(f2, compose(kk, h2, 3, name="f")),
        )
        results += [(label, rep.equal, rep.render()) for label, rep in zip(_FACTOR_LABELS, reps)]
    rows = tally_rows(results, f"{instances}/{instances} instances", _FACTOR_LABELS)
    return "Factorization through a linear map", tuple(rows)


def _pairing_instance_by_instance(seed, instances, dims):
    rng, failures = random.Random(seed), []
    for k in range(instances):
        picked = suites._pick_dims(rng, rng.choice((1, 2, 3)) + 1, dims)
        f = random_map(len(picked) - 1, picked[:-1], picked[-1], seed=rng.randrange(1 << 30))
        fstar = suites.prepared("f^{*}", f.arity)(f)  # as the suite binds it, broken or not
        shape = f.shape[-1:] + f.shape[:-1]
        want = tuple(f.entry(idx[1:] + idx[:1]) for idx in product(*map(range, shape)))
        failures += [k] if fstar.shape != shape or fstar.entries != want else []
    detail = f"{instances - len(failures)}/{instances} instances"
    detail += "; failing instances: " + ", ".join(map(str, failures[:5])) if failures else ""
    return "Adjoint pairing identity", (
        ("pairing identity on all basis tuples", not failures, detail),
    )


def _perturb_odd(monkeypatch, *names):
    """From then on, every realization named in ``names`` comes back with 1
    added to entry 0 of each instance whose entry 0 is odd, whether it is
    realized alone or as one instance of a stack."""
    real = tensor.transpose

    def transpose(m, new_axes, name=None, labels=None):
        out = real(m, new_axes, name=name, labels=labels)
        if name in names:
            size, entries = len(out.entries) // out.instances, list(out.entries)
            for k in range(0, len(entries), size):
                entries[k] += entries[k] % 2
            out = dataclasses.replace(out, entries=tuple(entries))
        return out

    monkeypatch.setattr(tensor, "transpose", transpose)


# each random section, its restatement one instance at a time, how many
# instances to draw and how to break it on some instances only
_ONE_BY_ONE = {
    "sweep": (run_extension_sweep, _sweep_trial_by_trial, 12,
              lambda mp: _perturb_odd(mp, "f^{s****t}")),
    "chain": (run_chain_suite, _chain_instance_by_instance, 5,
              lambda mp: _perturb_odd(mp, "f^{s****t}", "f^{r***t}")),
    "factorization": (run_factorization_suite, _factorization_instance_by_instance, 8,
                      lambda mp: _perturb_odd(mp, "f^{t*****}", "K^{*****}")),
    "bridge": (run_slice_bridge_suite, _bridge_rows_pair_by_pair, 8,
               lambda mp: _perturb_odd(mp, "f^{s******}")),
    "pairing": (run_adjoint_pairing, _pairing_instance_by_instance, 30, _break_adjoint),
}


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), None])
@pytest.mark.parametrize("section", sorted(_ONE_BY_ONE))
def test_each_random_section_gives_the_one_by_one_rows(monkeypatch, section, dims, broken):
    run, restated, count, breaks = _ONE_BY_ONE[section]
    if broken:
        breaks(monkeypatch)
    got = run(5, count, dims)
    assert got == restated(5, count, dims)
    assert all(ok for _, ok, _ in got[1]) is not broken  # a break shows in some row


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), None])
def test_a_smaller_chunk_gives_the_same_rows(monkeypatch, dims):
    _perturb_odd(monkeypatch, "f^{s****t}", "f^{t*****}", "f^{s******}", "f^{r***t}")
    want = full_suite(seed=2, trials=10, instances=7, dims=dims)
    assert not all(ok for _, rows in want for _, ok, _ in rows)
    monkeypatch.setattr(suites, "CHUNK", 3)
    assert full_suite(seed=2, trials=10, instances=7, dims=dims) == want


def test_instances_of_one_shape_are_checked_as_one_stack_at_any_dims(monkeypatch):
    drawn, real = [], suites._draw
    monkeypatch.setattr(suites, "_draw", lambda seeds, *role: drawn.append(len(seeds))
                        or real(seeds, *role))
    _, (row,) = run_extension_sweep(0, trials=100, dims=None)
    assert row[1]
    # the 100 maps have fewer shapes than maps: one draw per shape, one
    # check per draw, each instance drawn once
    assert sum(drawn) == 100 and max(drawn) > 1 and len(drawn) < 100


def test_slice_bridge_suite_with_no_pairs_gives_three_passing_rows():
    assert run_slice_bridge_suite(3, 0, (2, 2, 2, 2)) == ("Bilinear slice bridge", tuple(
        (label, True, "0/0 pairs") for label in algebra.BRIDGE_ROWS
    ))


def test_mixed_shape_report_is_pinned():
    # dims=None draws maps of many shapes, which no stack can hold
    text = render_report(full_suite(seed=0, dims=None), "dims=None")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1eeb02c4150f20ccc579ebfd91dc7b848346e47adcff2421bb74c238a19b0129"
    )


# every word in the operation alphabet realizes to a well-formed tensor
# whose entry multiset is exactly that of the base map (adjoints and
# flips only permute and relabel axes)
@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="*ijrts", max_size=8))
def test_realize_permutes_entries(ops):
    base = random_map(3, (1, 2, 2), 2, seed=13, name="f")
    out = realize(ExprAst("f", tuple(ops)), base)
    assert sorted(out.entries) == sorted(base.entries)
    assert len(out.axis_labels) == 4
    assert len(set(out.axis_labels)) == 4


# an arity-n map is reproduced exactly by n+1 adjoints
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_full_adjoint_cycle_reproduces_map(arity, seed):
    dims = tuple(((seed + k) % 3) + 1 for k in range(arity))
    base = random_map(arity, dims, ((seed + arity) % 3) + 1, seed=seed, name="f")
    out = realize(ExprAst("f", ("*",) * (arity + 1)), base)
    assert out.entries == base.entries
    assert out.axis_labels == base.axis_labels
    assert out.shape == base.shape


def _violated(*_):
    raise algebra.ConstraintViolated("violated at (0, 0)")


# a stand-in for the nested check, and the section rows it must give
NESTED_FAILURES = {
    "every case raises": (_violated, (
        ("zero inner map accepted", False, "violated at (0, 0)"),
        ("nonlinear scalar candidate rejected", True, "violated at (0, 0)"),
        ("zero scalar case accepted", False, "violated at (0, 0)"),
    )),
    "no case raises": (lambda *_: (), (
        ("zero inner map accepted", True, ""),
        ("nonlinear scalar candidate rejected", False, "no violation raised"),
        ("zero scalar case accepted", True, ""),
    )),
}


@pytest.mark.parametrize("case", NESTED_FAILURES)
def test_nested_section_failure_rows_are_pinned(monkeypatch, case):
    check, rows = NESTED_FAILURES[case]
    monkeypatch.setattr(suites, "nested_bilinear_check", check)
    assert suites.run_nested_bilinear_cases(0) == ("Nested bilinear constraint", rows)
