from __future__ import annotations

import dataclasses
import random
import tempfile
from fractions import Fraction
from itertools import permutations, product
from math import lcm, prod
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import arenscalc.tensor as tensor_module
from arenscalc.expr import ExprAst, parse
from arenscalc.tensor import (
    DimensionMismatch,
    MultiMap,
    ShapeMismatch,
    adjoint,
    basis_vector,
    compose_codomain,
    compose_into_slot,
    default_labels,
    equal,
    evaluate,
    flip,
    from_dict,
    from_function,
    load_map,
    random_map,
    realize,
    realizer,
    save_map,
    slice_slot,
    stack,
    to_dict,
    vector,
)


def _random_vector(rng, dim):
    return vector([rng.randint(-5, 5) for _ in range(dim)])


def _basis_tuples(dims):
    return product(*(range(d) for d in dims))


# ---------------------------------------------------------------------------
# adjoint: defining pairing identity, checked on every basis tuple


def test_adjoint_pairing_identity_all_arities():
    rng = random.Random(11)
    for arity in (1, 2, 3):
        for trial in range(10):
            dims = tuple(rng.choice((1, 2, 3)) for _ in range(arity))
            cod = rng.choice((1, 2, 3))
            f = random_map(arity, dims, cod, seed=rng.randint(0, 10**6))
            g = adjoint(f)
            for idx in _basis_tuples((cod,) + dims):
                wstar = basis_vector(cod, idx[0])
                args = [basis_vector(d, i) for d, i in zip(dims, idx[1:])]
                lhs = sum(map(mul, evaluate(g, [wstar] + args[:-1]), args[-1]))
                rhs = sum(map(mul, wstar, evaluate(f, args)))
                assert lhs == rhs


def test_adjoint_entry_rule():
    f = random_map(3, (2, 3, 2), 2, seed=5)
    g = adjoint(f)
    assert g.input_dims == (2, 2, 3)
    assert g.codomain_dim == 2
    for l, i, j, k in _basis_tuples(f.shape):
        assert g.entry((k, l, i, j)) == f.entry((l, i, j, k))


def test_entry_refuses_an_index_of_another_length():
    f = random_map(3, (2, 2, 2), 2, seed=1)
    assert f.entry((0, 1, 0, 1)) == f.entries[5]
    for index in ((), (1,), (0, 1, 0), (0, 1, 0, 0, 7)):
        with pytest.raises(DimensionMismatch, match=f"{len(index)} positions for shape"):
            f.entry(index)


def test_adjoint_labels():
    f = random_map(3, (2, 2, 2), 2, seed=1)
    assert adjoint(f).axis_labels == ("in3*", "out*", "in1", "in2")
    assert adjoint(adjoint(f)).axis_labels == ("in2*", "in3", "out*", "in1")


def test_four_adjoints_restore_trilinear_map():
    f = random_map(3, (2, 3, 1), 3, seed=9)
    g = adjoint(adjoint(adjoint(adjoint(f))))
    assert g.axis_labels == f.axis_labels
    assert g.entries == f.entries


def test_adjoint_cycle_lengths_lower_arities():
    m = random_map(2, (2, 3), 2, seed=4)
    assert adjoint(adjoint(adjoint(m))).entries == m.entries
    h = random_map(1, (3,), 2, seed=4)
    assert adjoint(adjoint(h)).entries == h.entries


# ---------------------------------------------------------------------------
# flips


def test_flip_entry_rule():
    f = random_map(3, (2, 3, 4), 2, seed=7)
    ft = flip(f, "t")
    assert ft.input_dims == (4, 2, 3)
    for l, i, j, k in _basis_tuples(f.shape):
        assert ft.entry((l, k, i, j)) == f.entry((l, i, j, k))


def test_flip_matches_argument_shuffle():
    rng = random.Random(23)
    f = random_map(3, (2, 3, 2), 3, seed=41)
    x, y, z = (_random_vector(rng, d) for d in (2, 3, 2))
    assert evaluate(flip(f, "t"), [z, x, y]) == evaluate(f, [x, y, z])
    assert evaluate(flip(f, "s"), [y, z, x]) == evaluate(f, [x, y, z])
    assert evaluate(flip(f, "r"), [z, y, x]) == evaluate(f, [x, y, z])


def test_flip_round_trips():
    f = random_map(3, (2, 3, 4), 2, seed=3)
    assert flip(flip(f, "t"), "s").entries == f.entries
    assert flip(flip(f, "i"), "i").entries == f.entries
    m = random_map(2, (2, 3), 2, seed=3)
    assert flip(flip(m, "r"), "r").entries == m.entries


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_is_multilinear():
    rng = random.Random(31)
    f = random_map(3, (2, 2, 3), 2, seed=13)
    x1, x2 = _random_vector(rng, 2), _random_vector(rng, 2)
    y, z = _random_vector(rng, 2), _random_vector(rng, 3)
    lam = Fraction(7, 3)
    mixed = vector([a + lam * b for a, b in zip(x1, x2)])
    left = evaluate(f, [mixed, y, z])
    right = tuple(
        tuple(
            a + lam * b
            for a, b in zip(evaluate(f, [x1, y, z]), evaluate(f, [x2, y, z]))
        )
    )
    assert left == right


def test_evaluate_dim_checks():
    f = random_map(3, (2, 2, 2), 2, seed=2)
    with pytest.raises(DimensionMismatch):
        evaluate(f, [basis_vector(3, 0), basis_vector(2, 0), basis_vector(2, 0)])
    with pytest.raises(DimensionMismatch):
        evaluate(f, [basis_vector(2, 0)])


# ---------------------------------------------------------------------------
# realize and equal


def test_realize_matches_manual_chain():
    f = random_map(3, (2, 3, 2), 2, seed=17)
    manual = flip(adjoint(adjoint(flip(f, "t"))), "s")
    realized = realize(parse("f^{t**s}"), f)
    assert realized.axis_labels == manual.axis_labels
    assert realized.entries == manual.entries


def test_realize_names_output_after_base_map():
    f = random_map(3, (2, 2, 2), 2, seed=17, name="conv")
    assert realize(parse("f^{**}"), f).name == "conv^{**}"


def test_equal_is_slot_order_blind():
    f = random_map(3, (2, 3, 4), 2, seed=19)
    report = equal(realize(parse("f^{i}"), f), f)
    assert report.equal
    report = equal(realize(parse("f^{rs}"), f), realize(parse("f^{i}"), f))
    assert report.equal


def test_equal_reports_first_mismatch():
    a = from_function("a", (2, 2), 1, lambda l, i, j: i + j)
    b = from_function("b", (2, 2), 1, lambda l, i, j: i + j + (i == 1 and j == 1))
    report = equal(a, b)
    assert not report.equal
    idx, lv, rv = report.first_mismatch
    assert idx == (0, 1, 1)
    assert (lv, rv) == ("2", "3")
    assert "FAIL" in report.render()


def test_equal_rejects_incomparable_shapes():
    f = random_map(3, (2, 2, 2), 2, seed=23)
    with pytest.raises(ShapeMismatch):
        equal(f, adjoint(f))  # different axis parities
    with pytest.raises(ShapeMismatch):
        equal(f, random_map(2, (2, 2), 2, seed=23))  # different arity
    with pytest.raises(ShapeMismatch):
        equal(f, random_map(3, (2, 2, 3), 2, seed=23))  # different dims


# ---------------------------------------------------------------------------
# determinism and serialization


def test_random_map_is_deterministic():
    a = random_map(3, (2, 2, 2), 2, seed=99)
    b = random_map(3, (2, 2, 2), 2, seed=99)
    c = random_map(3, (2, 2, 2), 2, seed=100)
    assert a.entries == b.entries
    assert a.entries != c.entries
    # equal small entries of two maps are one interned object
    pairs = [(x, y) for x in a.entries for y in c.entries if x == y]
    assert pairs and all(x is y for x, y in pairs)


def test_json_round_trip_is_bit_exact(tmp_path):
    f = from_function(
        "ratios", (2, 3), 2, lambda l, i, j: Fraction(l * 7 - i * 3 + 1, j + 2)
    )
    path = tmp_path / "ratios.json"
    save_map(f, path)
    g = load_map(path)
    assert g == f
    assert to_dict(g) == to_dict(f)


def test_json_accepts_integer_literals():
    d = to_dict(random_map(2, (2, 2), 1, seed=8))
    d["entries"] = [int(Fraction(e)) for e in d["entries"]]
    assert from_dict(d).entries == tuple(Fraction(e) for e in d["entries"])


def test_malformed_map_data_is_rejected():
    good = to_dict(random_map(2, (2, 2), 1, seed=8))
    for breakage in (
        {"entries": good["entries"][:-1]},
        {"axis_labels": ["out", "in1", "in1"]},
        {"input_dims": [2]},
        {"entries": good["entries"][:-1] + ["1/0"]},
        # types that to_dict never writes
        {"axis_labels": [1, 2, 3]},
        {"axis_labels": ["out", None, "in2"]},
        {"axis_labels": "oab"},
        {"name": None},
        {"name": 7},
        {"input_dims": [2.5, 2]},
        {"input_dims": [2.0, 2]},
        {"input_dims": [True, 2]},
        {"input_dims": ["2", 2]},
        {"input_dims": "22"},
        {"arity": 2.0},
        {"arity": "2"},
        {"arity": True},
        {"codomain_dim": 1.0},
        {"codomain_dim": True},
        {"entries": "1111"},
        {"entries": good["entries"][:-1] + [True]},
    ):
        bad = {**good, **breakage}
        with pytest.raises(ShapeMismatch):
            from_dict(bad)


def test_json_string_entries_only_in_the_written_form():
    d = to_dict(random_map(2, (2, 2), 1, seed=8))
    d["entries"] = ["-3/4", "5", 0.5, -2]
    assert from_dict(d).entries == (Fraction(-3, 4), 5, Fraction(1, 2), -2)
    d["entries"] = [0.1, "1", "1", "1"]  # a float is its exact binary value
    assert from_dict(d).entries[0] == Fraction(0.1) != Fraction(1, 10)
    for entry in ("1e999999999", "1.5", " 1", "+1", "1_0", "0x10", "nan", "-", "1/", float("inf")):
        d["entries"] = [entry, "1", "1", "1"]
        with pytest.raises(ShapeMismatch):
            from_dict(d)


# ---------------------------------------------------------------------------
# composition helpers


def test_build_factored_matches_pointwise_composition():
    rng = random.Random(37)
    g = random_map(3, (2, 3, 2), 2, seed=101, name="g")
    h = random_map(1, (4,), 3, seed=102, name="h")
    f = compose_into_slot(g, h, slot=2)
    assert f.arity == 3
    assert f.input_dims == (2, 4, 2)
    for _ in range(10):
        x, y, z = (_random_vector(rng, d) for d in (2, 4, 2))
        assert evaluate(f, [x, y, z]) == evaluate(g, [x, evaluate(h, [y]), z])


def test_compose_into_slot_bilinear_into_bilinear():
    rng = random.Random(41)
    outer = random_map(2, (3, 2), 2, seed=103, name="outer")
    inner = random_map(2, (2, 2), 3, seed=104, name="inner")
    triple = compose_into_slot(outer, inner, slot=1)
    assert triple.arity == 3
    for _ in range(10):
        x, y, z = (_random_vector(rng, d) for d in (2, 2, 2))
        assert evaluate(triple, [x, y, z]) == evaluate(
            outer, [evaluate(inner, [x, y]), z]
        )


def test_compose_into_slot_dim_check():
    outer = random_map(2, (3, 2), 2, seed=1)
    inner = random_map(1, (2,), 4, seed=2)
    with pytest.raises(DimensionMismatch):
        compose_into_slot(outer, inner, slot=1)


def test_compose_codomain_matches_pointwise():
    rng = random.Random(43)
    m = random_map(2, (2, 3), 4, seed=105, name="m")
    post = random_map(1, (4,), 2, seed=106, name="post")
    composed = compose_codomain(post, m)
    for _ in range(10):
        x, y = _random_vector(rng, 2), _random_vector(rng, 3)
        assert evaluate(composed, [x, y]) == evaluate(post, [evaluate(m, [x, y])])


def test_slice_slot_matches_fixed_argument():
    rng = random.Random(47)
    f = random_map(3, (2, 3, 2), 2, seed=107)
    w = _random_vector(rng, 2)
    sliced = slice_slot(f, 1, w)
    assert sliced.arity == 2
    assert sliced.axis_labels == ("out", "in2", "in3")
    for _ in range(10):
        y, z = _random_vector(rng, 3), _random_vector(rng, 2)
        assert evaluate(sliced, [y, z]) == evaluate(f, [w, y, z])


def test_slice_slot_checks():
    f = random_map(3, (2, 2, 2), 2, seed=3)
    with pytest.raises(DimensionMismatch):
        slice_slot(f, 1, basis_vector(3, 0))
    with pytest.raises(ShapeMismatch):
        slice_slot(f, 4, basis_vector(2, 0))


# ---------------------------------------------------------------------------
# construction guards


def test_multimap_validation():
    with pytest.raises(ShapeMismatch):
        MultiMap("bad", 2, (2,), 2, ("out", "in1", "in2"), (Fraction(0),) * 8)
    with pytest.raises(ShapeMismatch):
        MultiMap("bad", 1, (2,), 2, ("out", "out"), (Fraction(0),) * 4)
    with pytest.raises(ShapeMismatch):
        MultiMap("bad", 1, (2,), 2, ("out", "in1"), (Fraction(0),) * 3)


def test_expr_ast_base_name_is_notational():
    f = random_map(3, (2, 2, 2), 2, seed=55, name="anything")
    assert realize(ExprAst("f", ("*",)), f).entries == adjoint(f).entries


# ---------------------------------------------------------------------------
# oracles: the one-permutation realize against the step-by-step fold, and the
# contraction evaluate against a per-index sum

WORD_ALPHABET = {1: "*", 2: "*r", 3: "*ijrts", 4: "*"}
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
INTEGERS = st.builds(Fraction, st.integers(-9, 9))
ZEROS = st.just(Fraction(0))


def _fold(word, base):
    out = base
    for op in word:
        out = adjoint(out) if op == "*" else flip(out, op)
    return out


def _evaluate_by_index(m, args):
    coords = []
    for l in range(m.codomain_dim):
        total = Fraction(0)
        for idx in _basis_tuples(m.input_dims):
            term = m.entry((l,) + idx)
            for v, i in zip(args, idx):
                term *= v[i]
            total += term
        coords.append(total)
    return tuple(coords)


def _draw_map(data, arity, codomain_dim=None, shape=None):
    """A map of ``arity`` with drawn dims, or of the given ``shape``."""
    if shape is None:
        shape = data.draw(st.lists(st.integers(1, 3), min_size=arity + 1, max_size=arity + 1))
    dims = list(shape)
    if codomain_dim is not None:
        dims[0] = codomain_dim
    # integer-only maps, maps with mixed denominators, and all-zero maps
    kind = data.draw(st.sampled_from((FRACTIONS, INTEGERS, ZEROS)), label="entry kind")
    values = iter(data.draw(st.lists(kind, min_size=prod(dims), max_size=prod(dims))))
    return from_function("f", dims[1:], dims[0], lambda *_: next(values))


def _draw_vector(data, dim):
    """Mixed-denominator coordinates, the zero vector, or a (scaled) one-hot vector."""
    kind = data.draw(st.sampled_from(("mixed", "zero", "one-hot")), label="vector kind")
    if kind == "mixed":
        return tuple(data.draw(st.lists(FRACTIONS, min_size=dim, max_size=dim)))
    k = data.draw(st.integers(0, dim - 1))
    c = 0 if kind == "zero" else data.draw(st.sampled_from((1, -1, Fraction(-3, 2))))
    return tuple(Fraction(c if i == k else 0) for i in range(dim))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_realize_equals_step_by_step_fold(data):
    arity = data.draw(st.integers(1, 4))
    letters = WORD_ALPHABET[arity]
    # a base reached by a prefix word carries starred, reordered labels
    base = _fold(data.draw(st.text(letters, max_size=4)), _draw_map(data, arity))
    word = data.draw(st.text(letters, max_size=12))
    got = realize(ExprAst("f", tuple(word)), base)
    want = _fold(word, base)
    assert got.axis_labels == want.axis_labels
    assert got.shape == want.shape
    assert got.entries == want.entries


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_realize_equals_step_by_step_fold_on_every_short_word(arity):
    letters = WORD_ALPHABET[arity]
    # distinct dims on every axis, so a misplaced axis changes the shape
    f = random_map(arity, tuple(range(2, arity + 2)), 1, seed=71)
    base = _fold("*" + letters[1:2], f)  # starred, reordered labels
    # a second base of the same arity with other dims, name and labels
    other = _fold(letters[1:][-1:] + "*", random_map(arity, (3,) * arity, 2, seed=72, name="g"))
    for length in range(6):
        for word in product(letters, repeat=length):
            got = realize(ExprAst("f", word), base)
            want = _fold(word, base)
            assert (got.axis_labels, got.shape) == (want.axis_labels, want.shape), word
            assert got.entries == want.entries, word
            # one prepared fold serves every base of its arity
            fold = realizer(ExprAst("f", word), arity)
            assert fold(base) == got, word
            assert fold(other) == realize(ExprAst("g", word), other), word


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_realizer_rejects_a_map_of_another_arity(arity):
    fold = realizer(ExprAst("f", ("*",)), arity)
    wrong = random_map(arity % 3 + 1, (2,) * (arity % 3 + 1), 2, seed=73)
    with pytest.raises(ShapeMismatch):
        fold(wrong)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_equals_per_index_reference(data):
    f = _draw_map(data, data.draw(st.integers(1, 3)))
    args = [_draw_vector(data, d) for d in f.input_dims]
    got = evaluate(f, args)
    assert got == _evaluate_by_index(f, args)
    assert all(type(c) is Fraction for c in got)


def _slice_by_index(m, slot, v):
    """``slice_slot`` restated: one Fraction sum per result entry."""
    dims = m.input_dims[: slot - 1] + m.input_dims[slot:]
    return tuple(
        sum(
            (m.entry((l,) + idx[: slot - 1] + (j,) + idx[slot - 1:]) * v[j]
             for j in range(len(v))),
            Fraction(0),
        )
        for l in range(m.codomain_dim)
        for idx in _basis_tuples(dims)
    )


def _compose_by_index(outer, inner, slot):
    """``compose_into_slot`` restated: one Fraction sum per result entry."""
    pre, post = outer.input_dims[: slot - 1], outer.input_dims[slot:]
    k = slot - 1
    return tuple(
        sum(
            (outer.entry((l,) + idx[:k] + (j,) + idx[k + inner.arity:])
             * inner.entry((j,) + idx[k:k + inner.arity])
             for j in range(inner.codomain_dim)),
            Fraction(0),
        )
        for l in range(outer.codomain_dim)
        for idx in _basis_tuples(pre + inner.input_dims + post)
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slice_slot_equals_per_index_sums(data):
    m = _draw_map(data, data.draw(st.integers(2, 3)))
    slot = data.draw(st.integers(1, m.arity))
    v = _draw_vector(data, m.input_dims[slot - 1])
    got = slice_slot(m, slot, v)
    assert got.entries == _slice_by_index(m, slot, v)
    assert all(type(e) is Fraction for e in got.entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compositions_equal_per_index_sums(data):
    outer = _draw_map(data, data.draw(st.integers(1, 3)))
    slot = data.draw(st.integers(1, outer.arity))
    inner = _draw_map(data, data.draw(st.integers(1, 2)), outer.input_dims[slot - 1])
    got = compose_into_slot(outer, inner, slot)
    assert got.entries == _compose_by_index(outer, inner, slot)
    assert all(type(e) is Fraction for e in got.entries)
    post = _draw_map(data, 1)
    m = _draw_map(data, data.draw(st.integers(1, 3)), post.input_dims[0])
    got = compose_codomain(post, m)
    assert got.axis_labels == m.axis_labels
    assert got.entries == _compose_by_index(post, m, 1)
    assert all(type(e) is Fraction for e in got.entries)


def test_evaluate_at_zero_gives_fraction_zeros():
    f = random_map(2, (2, 3), 3, seed=59)
    got = evaluate(f, [vector([0, 0]), vector([1, 2, 3])])
    assert got == (Fraction(0),) * 3
    assert all(type(c) is Fraction for c in got)


def test_long_word_realizes_with_one_transpose(monkeypatch):
    f = random_map(3, (2, 3, 2), 2, seed=61)
    word = "****ts" * 1666 + "***i"  # 10 000 ops, net effect f^{***i}
    want = _fold("***i", f)
    calls = []
    real_transpose = tensor_module.transpose

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real_transpose(*args, **kwargs)

    monkeypatch.setattr(tensor_module, "transpose", counting)
    got = realize(ExprAst("f", tuple(word)), f)
    assert len(calls) == 1
    assert got.axis_labels == want.axis_labels
    assert got.entries == want.entries


# ---------------------------------------------------------------------------
# oracles for equal, random_map and permutation plans


def _equal_reference(left, right):
    """``equal`` restated: align ``right`` through ``transpose``, then scan
    every index in row-major order."""
    if left.arity != right.arity:
        raise ShapeMismatch(f"arity {left.arity} vs {right.arity}")
    if set(right.axis_labels) != set(left.axis_labels):
        raise ShapeMismatch(
            f"cannot align labels {right.axis_labels} to {left.axis_labels}"
        )
    aligned = tensor_module.transpose(
        right, tuple(right.axis_labels.index(lab) for lab in left.axis_labels)
    )
    if aligned.shape != left.shape:
        raise ShapeMismatch(
            f"dims {left.shape} vs {aligned.shape} after label alignment"
        )
    for idx in _basis_tuples(left.shape):
        a, b = left.entry(idx), aligned.entry(idx)
        if a != b:
            return tensor_module.IdentityReport(
                left.name, right.name, False, (idx, str(a), str(b))
            )
    return tensor_module.IdentityReport(left.name, right.name, True)


PERTURBATIONS = st.sampled_from(
    [Fraction(1), Fraction(-2, 3), Fraction(1, 10**4), Fraction(-1, 10**12)]
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_equal_matches_transpose_and_scan_reference(data):
    arity = data.draw(st.integers(1, 3))
    left = _fold(data.draw(st.text(WORD_ALPHABET[arity], max_size=4)), _draw_map(data, arity))
    # the right side: the same map with its axes (codomain included) in
    # another order, sometimes with fresh but equal Fraction objects
    axes = tuple(data.draw(st.permutations(range(arity + 1))))
    right = tensor_module.transpose(left, axes, name="g")
    entries = list(right.entries)
    if data.draw(st.booleans()):
        entries = [Fraction(e.numerator, e.denominator) for e in entries]
    n_perturbed = data.draw(st.integers(0, min(2, len(entries))))
    for pos in data.draw(st.lists(
        st.integers(0, len(entries) - 1), min_size=n_perturbed, max_size=n_perturbed,
        unique=True,
    )):
        entries[pos] += data.draw(PERTURBATIONS)
    right = MultiMap(
        right.name, right.arity, right.input_dims, right.codomain_dim,
        right.axis_labels, tuple(entries),
    )
    assert equal(left, right) == _equal_reference(left, right)


def test_equal_shape_mismatch_messages():
    f = random_map(3, (2, 2, 2), 2, seed=23)
    with pytest.raises(ShapeMismatch) as exc:
        equal(f, random_map(2, (2, 2), 2, seed=23))
    assert str(exc.value) == "arity 3 vs 2"
    with pytest.raises(ShapeMismatch) as exc:
        equal(f, adjoint(f))
    assert str(exc.value) == (
        "cannot align labels ('in3*', 'out*', 'in1', 'in2') "
        "to ('out', 'in1', 'in2', 'in3')"
    )
    with pytest.raises(ShapeMismatch) as exc:
        equal(f, flip(random_map(3, (2, 2, 3), 2, seed=23), "t"))
    assert str(exc.value) == "dims (2, 2, 2, 2) vs (2, 2, 2, 3) after label alignment"
    # past eight labels the message counts the rest
    wide = MultiMap("w", 11, (1,) * 11, 1, default_labels(11), (Fraction(1),))
    with pytest.raises(ShapeMismatch) as exc:
        equal(wide, adjoint(wide))
    assert str(exc.value) == (
        "cannot align labels ('in11*', 'out*', 'in1', 'in2', 'in3', 'in4', 'in5', 'in6', "
        "... 4 more) to ('out', 'in1', 'in2', 'in3', 'in4', 'in5', 'in6', 'in7', ... 4 more)"
    )
    # past eight axes a dims mismatch names its first differing axis
    other_dims = MultiMap("w", 11, (1,) * 10 + (2,), 1, default_labels(11), (Fraction(1),) * 2)
    with pytest.raises(ShapeMismatch) as exc:
        equal(wide, other_dims)
    assert str(exc.value) == "dims 1 vs 2 on axis in11 after label alignment"


def test_random_map_checks_its_arity_against_the_dims():
    with pytest.raises(ShapeMismatch, match="arity 2"):
        random_map(2, (2, 2, 2), 2, seed=0)


def test_prepared_adjoint_matches_the_oracle_at_every_arity():
    for arity in (1, 2, 3, 4):
        f = random_map(arity, (2, 3, 1, 2)[:arity], 3, seed=arity)
        fold = tensor_module.prepared("f^{*}", arity)
        assert tensor_module.prepared("f^{*}", arity) is fold  # one entry per key
        want = adjoint(f)
        got = fold(f)
        assert (got.axis_labels, got.shape, got.entries) == (want.axis_labels, want.shape, want.entries)


def test_random_map_matches_entrywise_build():
    rng = random.Random(67)
    for _ in range(200):
        arity = rng.randint(1, 3)
        dims = tuple(rng.randint(1, 4) for _ in range(arity))
        cod = rng.randint(1, 4)
        seed = rng.randrange(1 << 30)
        draws = random.Random(seed)
        want = from_function("h", dims, cod, lambda *_: draws.randint(-9, 9))
        got = random_map(arity, dims, cod, seed=seed, name="h")
        assert got == want
        assert all(type(e) is Fraction for e in got.entries)


@pytest.mark.parametrize("arity, dims, cod, message", [
    (0, (), 2, "f: arity 0 vs input dims ()"),
    (2, (2, 2, 2), 2, "f: arity 2 vs input dims (2, 2, 2)"),
    (2, (2, 0), 2, "f: dims must be positive: (2, 2, 0)"),
    (2, (-1, -1), 2, "f: dims must be positive: (2, -1, -1)"),
    (1, (2,), 0, "f: dims must be positive: (0, 2)"),
])
def test_random_map_refuses_a_bad_shape_as_the_map_does(arity, dims, cod, message):
    with pytest.raises(ShapeMismatch) as drawn:
        random_map(arity, dims, cod, seed=0)
    assert str(drawn.value) == message
    with pytest.raises(ShapeMismatch) as built:
        MultiMap("f", arity, dims, cod, default_labels(len(dims)), ())
    assert str(built.value) == message


def test_a_drawn_map_is_the_validated_map():
    for arity in (1, 2, 3, 4):
        f = random_map(arity, (2, 3, 1, 2)[:arity], 3, seed=arity, name="g")
        g = MultiMap("g", arity, f.input_dims, f.codomain_dim, f.axis_labels, f.entries)
        assert f == g
        assert (hash(f), repr(f)) == (hash(g), repr(g))


# a map of one entry keeps the top byte of two 32-bit words per round, so
# a seed whose first rounds are all rejected runs the draw loop again: at
# seed 263 the fifth round keeps the first byte
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda arity: st.tuples(
        st.just(arity), st.lists(st.integers(1, 4), min_size=arity, max_size=arity),
        st.integers(1, 4))),
    st.lists(st.integers(0, (1 << 30) - 1), min_size=1, max_size=30),
)
@example((1, [1], 1), [0, 263, (1 << 30) - 1])
@example((3, [1, 1, 1], 1), [263] * 3 + [0])
def test_a_stack_draw_is_the_stack_of_single_draws(shape, seeds):
    arity, dims, cod = shape
    singles = [random_map(arity, dims, cod, seed=s, name="g") for s in seeds]
    want = stack(singles)
    got = tensor_module._draw(seeds, arity, dims, cod, "g")
    assert got == want
    assert hash(got) == hash(want)
    assert (got.lane, got.axis_labels) == (want.lane, want.axis_labels)


def test_a_stack_draw_refuses_a_bad_shape_as_a_single_draw_does():
    for arity, dims, cod in ((0, (), 2), (2, (2, 2, 2), 2), (2, (-1, -1), 2), (1, (2,), 0)):
        with pytest.raises(ShapeMismatch) as drawn:
            tensor_module._draw([1, 2], arity, dims, cod)
        with pytest.raises(ShapeMismatch) as single:
            random_map(arity, dims, cod, seed=1)
        assert str(drawn.value) == str(single.value)


def test_from_function_keeps_every_result_exact_and_shares_integers():
    results = (
        lambda l, i: l - 2 * i,
        lambda l, i: l == i,
        lambda l, i: Fraction(l + 1, i + 2),
        lambda l, i: (l + 1) / (i + 3),
    )
    for fn in results:
        got = from_function("h", (3,), 2, fn)
        assert got.entries == tuple(Fraction(fn(*idx)) for idx in _basis_tuples((2, 3)))
        assert all(type(e) is Fraction and type(e.numerator) is int for e in got.entries)
    a, b = (from_function(name, (3,), 2, results[0]) for name in "ab")
    assert all(x is y for x, y in zip(a.entries, b.entries))


def test_permutation_plan_reused_across_maps_of_one_shape():
    shape = (2, 3, 1, 4)
    axes = (2, 0, 3, 1)
    tensor_module._plan.cache_clear()
    for seed in (71, 72):
        m = random_map(3, shape[1:], shape[0], seed=seed)
        got = tensor_module.transpose(m, axes)
        assert got.shape == tuple(shape[a] for a in axes)
        for idx in _basis_tuples(shape):
            assert got.entry(tuple(idx[a] for a in axes)) == m.entry(idx)
    info = tensor_module._plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    maps = [random_map(3, shape[1:], shape[0], seed=seed) for seed in (71, 72)]
    both = tensor_module.transpose(stack(maps), axes)
    assert both.entries == sum((tensor_module.transpose(m, axes).entries for m in maps), ())
    info = tensor_module._plan.cache_info()
    assert (info.misses, info.hits) == (1, 4)  # the stack gathers through the single-map plan


@pytest.mark.parametrize("shape", [(1,), (1, 1), (2, 1), (1, 3), (1, 1, 1), (2, 1, 3), (1, 2, 1, 2)])
def test_permute_matches_index_arithmetic(shape):
    size = prod(shape)
    for n in (1, 2, 3):
        entries = tuple(range(100, 100 + n * size))
        for axes in permutations(range(len(shape))):
            new_shape = tuple(shape[a] for a in axes)
            want = []
            for k in range(n):
                for idx in _basis_tuples(new_shape):
                    old = [0] * len(shape)
                    for b, a in enumerate(axes):
                        old[a] = idx[b]
                    flat = 0
                    for d, i in zip(shape, old):
                        flat = flat * d + i
                    want.append(entries[k * size + flat])
            for source in (entries, list(entries)):
                got = tensor_module._permute(source, shape, axes, n)
                assert type(got) is tuple and got == tuple(want), (shape, axes, n)
    if size == 1 and len(shape) > 1:  # a one-entry plan still gathers a 1-tuple
        assert tensor_module._plan(shape, tuple(range(len(shape)))[::-1])(["x"]) == ("x",)


def test_scaled_sum_matches_fractions_and_never_returns_a_lane():
    values = [
        [Fraction(1, 2), Fraction(-3), Fraction(5, 6), Fraction(0)],
        [Fraction(2), Fraction(1, 3), Fraction(-7, 4), Fraction(9)],
        [Fraction(-1, 5), Fraction(4), Fraction(1, 2), Fraction(-2, 3)],
    ]
    for count in (1, 2, 3):
        for dens in ((1,), (2,), (6, 60)):  # den at the lanes' lcm, or past it
            lanes = [tensor_module._integers(v) for v in values[:count]]
            den = lcm(*dens, *(d for _, d in lanes))
            kept = [list(t) for t, _ in lanes]
            got = tensor_module._scaled_sum(lanes, den)
            assert [Fraction(x, den) for x in got] == [sum(col) for col in zip(*values[:count])]
            assert all(got is not t for t, _ in lanes)
            got[0] += 1  # the caller's lanes, which maps cache, are untouched
            assert [list(t) for t, _ in lanes] == kept
    whole = ([3, -1, 4], 1)
    assert tensor_module._scaled_sum([whole], 1) == [3, -1, 4]
    assert tensor_module._scaled_sum([whole], 1) is not whole[0]


# ---------------------------------------------------------------------------
# stacks: n maps of one shape, realized and compared at once


def _unstacked(m):
    """The maps of a stack, one by one."""
    size = len(m.entries) // m.instances
    return [
        dataclasses.replace(m, entries=m.entries[k * size:(k + 1) * size], instances=1)
        for k in range(m.instances)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stack_realizes_and_compares_as_each_map_alone(data):
    arity = data.draw(st.integers(1, 3))
    letters = WORD_ALPHABET[arity]
    dims = data.draw(st.lists(st.integers(1, 3), min_size=arity + 1, max_size=arity + 1))
    # every map reached by one prefix word, so all carry one set of starred labels
    prefix = data.draw(st.text(letters, max_size=3))
    maps = [
        _fold(prefix, random_map(arity, dims[1:], dims[0], seed=data.draw(st.integers(0, 1 << 30))))
        for _ in range(data.draw(st.integers(1, 4), label="instances"))
    ]
    word = ExprAst("f", tuple(data.draw(st.text(letters, max_size=8))))
    left = realize(word, stack(maps))
    singles = [realize(word, m) for m in maps]
    assert left.instances == len(maps)
    assert _unstacked(left) == singles
    # the right side: the same maps with their axes in another order, and
    # sometimes one entry of one instance perturbed
    axes = tuple(data.draw(st.permutations(range(arity + 1))))
    right = tensor_module.transpose(left, axes, name="g")
    entries = list(right.entries)
    if data.draw(st.booleans()):
        pos = data.draw(st.integers(0, len(entries) - 1), label="perturbed position")
        entries[pos] += data.draw(PERTURBATIONS)
    right = dataclasses.replace(right, entries=tuple(entries))
    each = [equal(a, b) for a, b in zip(singles, _unstacked(right))]
    got = equal(left, right)
    # a failing stack reports what its first failing instance reports alone
    assert got == next((rep for rep in each if not rep.equal), each[0])


def test_a_stack_of_one_is_the_map_itself():
    f = _fold("*t", random_map(3, (2, 3, 1), 2, seed=74))
    assert stack([f]) == f
    word = parse("f^{i****i}")
    assert realize(word, stack([f])) == realize(word, f)
    g = dataclasses.replace(f, entries=(f.entries[0] + 1,) + f.entries[1:])
    assert equal(stack([f]), stack([g])) == equal(f, g)


def test_stacks_refuse_mixed_shapes_and_counts():
    f, g = random_map(2, (2, 2), 2, seed=75), random_map(2, (2, 3), 2, seed=76)
    with pytest.raises(ShapeMismatch, match="differ in shape or labels"):
        stack([f, g])
    with pytest.raises(ShapeMismatch, match="differ in shape or labels"):
        stack([f, adjoint(adjoint(f))])
    with pytest.raises(ShapeMismatch, match="stacks of 2 vs 1 maps"):
        equal(stack([f, f]), f)


def test_an_empty_stack_is_refused():
    with pytest.raises(ShapeMismatch, match="^a stack needs at least one map$"):
        stack([])


def test_single_map_readers_refuse_stacks():
    f = random_map(2, (2, 2), 2, seed=77)
    fs = stack([f, f])
    e = basis_vector(2, 0)
    calls = {
        "evaluate": lambda: evaluate(fs, (e, e)),
        "slice_slot": lambda: slice_slot(fs, 1, e),
        "entry": lambda: fs.entry((0, 0, 0)),
        "to_dict": lambda: to_dict(fs),
    }
    for what, call in calls.items():
        with pytest.raises(ShapeMismatch, match="a stack of 2 maps, where one map is needed"):
            call()
            pytest.fail(what)
    # a stack of one is one map
    assert evaluate(stack([f]), (e, e)) == evaluate(f, (e, e))
    assert to_dict(stack([f])) == to_dict(f)


def _draw_stack(data, first, n):
    """``first`` and n - 1 more drawn maps of its shape, one by one."""
    return [first] + [_draw_map(data, first.arity, shape=first.shape) for _ in range(n - 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_compositions_unstack_into_each_single_one(data):
    n = data.draw(st.integers(1, 4), label="instances")
    outer = _draw_map(data, data.draw(st.integers(1, 3)))
    slot = data.draw(st.integers(1, outer.arity))
    inner = _draw_map(data, data.draw(st.integers(1, 2)), outer.input_dims[slot - 1])
    outers, inners = _draw_stack(data, outer, n), _draw_stack(data, inner, n)
    got = compose_into_slot(stack(outers), stack(inners), slot)
    assert got.instances == n
    assert _unstacked(got) == [compose_into_slot(o, i, slot) for o, i in zip(outers, inners)]
    _check_lane(got, held=all(m.lane[1] == 1 for m in outers + inners))
    post = _draw_map(data, 1)
    posts = _draw_stack(data, post, n)
    maps = _draw_stack(data, _draw_map(data, data.draw(st.integers(1, 3)), post.input_dims[0]), n)
    got = compose_codomain(stack(posts), stack(maps))
    assert got.instances == n and got.axis_labels == maps[0].axis_labels
    assert _unstacked(got) == [compose_codomain(p, m) for p, m in zip(posts, maps)]
    _check_lane(got, held=all(m.lane[1] == 1 for m in posts + maps))


def test_compositions_refuse_stacks_of_different_counts():
    f, h = random_map(2, (2, 2), 2, seed=77), random_map(1, (2,), 2, seed=78)
    with pytest.raises(ShapeMismatch, match="stacks of 2 vs 1 maps"):
        compose_into_slot(stack([f, f]), h, 1)
    with pytest.raises(ShapeMismatch, match="stacks of 2 vs 3 maps"):
        compose_into_slot(stack([f, f]), stack([h, h, h]), 2)
    with pytest.raises(ShapeMismatch, match="stacks of 1 vs 2 maps"):
        compose_codomain(h, stack([f, f]))


# ---------------------------------------------------------------------------
# the integer lane


def _check_lane(m, held):
    """The lane ``m`` holds, if any, is the one its entries give; ``held``
    says that it must hold one."""
    lane = vars(m).get("lane")
    assert lane is not None or not held
    ints, den = m.lane
    assert (list(ints), den) == tensor_module._integers(m.entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_held_lane_is_the_one_the_entries_give(data):
    outer = _draw_map(data, data.draw(st.integers(1, 3)))
    slot = data.draw(st.integers(1, outer.arity))
    inner = _draw_map(data, data.draw(st.integers(1, 2)), outer.input_dims[slot - 1])
    integral = outer.lane[1] == inner.lane[1] == 1
    _check_lane(compose_into_slot(outer, inner, slot), held=integral)
    post = _draw_map(data, 1, data.draw(st.integers(1, 3)))
    m = _draw_map(data, data.draw(st.integers(1, 3)), post.input_dims[0])
    _check_lane(compose_codomain(post, m), held=post.lane[1] == m.lane[1] == 1)
    if outer.arity > 1:
        v = _draw_vector(data, outer.input_dims[slot - 1])
        held = outer.lane[1] == 1 and all(x.denominator == 1 for x in v)
        _check_lane(slice_slot(outer, slot, v), held)
    # a transpose of a source built from entries holds no lane, a stack
    # included, even from a source that holds one too: it permutes the
    # entries alone, and its first lane read is the one its entries give
    axes = tuple(data.draw(st.permutations(range(outer.arity + 1))))
    fresh = dataclasses.replace(outer, name="g")
    many = stack([outer, fresh])
    _check_lane(many, held=False)  # reads the stack's lane, which it then holds
    for source in (fresh, outer, many):
        with mock.patch.object(tensor_module, "_permute", wraps=tensor_module._permute) as spy:
            got = tensor_module.transpose(source, axes)
        assert spy.call_count == 1
        assert "lane" not in vars(got)
        assert got.lane == tensor_module._integers(got.entries)
    # a source that holds its lane alone (a draw, a stack draw, an integral
    # kernel result) gives the moved lane alone, through one gather
    seed = data.draw(st.integers(0, 1 << 30), label="seed")
    drawn = random_map(outer.arity, outer.input_dims, outer.codomain_dim, seed=seed)
    both = tensor_module._draw([seed, seed + 1], outer.arity, outer.input_dims, outer.codomain_dim)
    composed = compose_into_slot(drawn, random_map(1, (2,), outer.input_dims[0], seed=seed), 1)
    for source in (drawn, both, composed):
        assert "entries" not in vars(source)
        ints, den = source.lane
        twin = _entry_built(source)
        with mock.patch.object(tensor_module, "_permute", wraps=tensor_module._permute) as spy:
            got = tensor_module.transpose(source, axes)
        assert spy.call_count == 1 and den == 1
        assert "entries" not in vars(got) and "entries" not in vars(source)
        assert got.lane == (tensor_module._permute(ints, source.shape, axes, source.instances), 1)
        assert got == tensor_module.transpose(twin, axes)


def _entry_built(m):
    """``m`` through the validating constructor, from entries read off its
    lane without reading its own entries."""
    ints, den = m.lane
    return MultiMap(m.name, m.arity, m.input_dims, m.codomain_dim, m.axis_labels,
                    tuple(Fraction(v, den) for v in ints), m.instances)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_lane_only_map_reads_as_the_entry_built_one(data):
    # draws, stack draws and kernel results, stacked ones included, hold
    # their lane alone until their entries are read; each check below
    # reads a fresh one
    arity = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=arity + 1, max_size=arity + 1)))
    seeds = data.draw(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=3), label="seeds")
    post = random_map(1, (dims[0],), data.draw(st.integers(1, 3)), seed=seeds[0], name="p")
    slot = data.draw(st.integers(1, arity))
    inner = random_map(1, (2,), dims[slot], seed=seeds[-1], name="h")
    v = vector(range(dims[slot]))
    builds = {
        "draw": lambda: random_map(arity, dims[1:], dims[0], seed=seeds[0]),
        "stack draw": lambda: tensor_module._draw(seeds, arity, dims[1:], dims[0]),
        "composition": lambda: compose_into_slot(builds["draw"](), inner, slot),
        "stacked composition": lambda: compose_into_slot(
            builds["stack draw"](), stack([inner] * len(seeds)), slot),
        "codomain composition": lambda: compose_codomain(post, builds["draw"]()),
        "slice": lambda: slice_slot(builds["draw"](), slot, v) if arity > 1 else builds["draw"](),
    }
    make = builds[data.draw(st.sampled_from(sorted(builds)), label="built by")]
    m = make()
    assert "entries" not in vars(m) and m.lane[1] == 1
    want = _entry_built(m)
    assert make() == want and want == make() and hash(make()) == hash(want)
    assert repr(make()) == repr(want)
    assert dataclasses.astuple(make()) == dataclasses.astuple(want)  # every field, in order
    # the benchmark's contract: a replaced map is validated and built from
    # its entries, with a lane read from them afresh
    g = dataclasses.replace(make(), entries=want.entries)
    assert g == want and "lane" not in vars(g) and g.lane == want.lane
    assert dataclasses.replace(make(), name="g") == dataclasses.replace(want, name="g")
    if m.instances == 1:
        idx = tuple(data.draw(st.integers(0, d - 1)) for d in m.shape)
        got = make().entry(idx)
        assert type(got) is Fraction and got == want.entry(idx)
        assert to_dict(make()) == to_dict(want)
        with tempfile.TemporaryDirectory() as tmp:
            lane_file, entries_file = Path(tmp, "lane.json"), Path(tmp, "entries.json")
            save_map(make(), lane_file)
            save_map(want, entries_file)
            assert lane_file.read_bytes() == entries_file.read_bytes()


def test_float_coordinates_are_read_at_their_exact_value():
    f = random_map(2, (2, 3), 2, seed=1)
    args = ([1.5, 2], [1, 0, 1])
    exact = tuple(map(vector, args))
    assert evaluate(f, args) == evaluate(f, exact) == _evaluate_by_index(f, exact)
    assert slice_slot(f, 1, [0.1, 2]) == slice_slot(f, 1, vector([0.1, 2]))  # 0.1's binary value
    v = [1.5, 0, -0.25]
    assert slice_slot(f, 2, v).entries == _slice_by_index(f, 2, vector(v))


def test_replaced_entries_get_a_fresh_lane():
    f = random_map(2, (2, 3), 2, seed=79)
    args = (vector([1, 2]), vector([1, 0, -1]))
    before = evaluate(f, args)
    assert "lane" in vars(f)
    # as the benchmark builds a perturbed map from one whose lane was read
    g = dataclasses.replace(f, entries=(f.entries[0] + Fraction(1, 2),) + f.entries[1:])
    assert "lane" not in vars(g)
    assert g.lane == tensor_module._integers(g.entries) and g.lane[1] == 2
    assert evaluate(g, args) == tuple(_evaluate_by_index(g, args))
    assert evaluate(g, args)[0] == before[0] + Fraction(1, 2)
    assert evaluate(f, args) == before


def test_a_checked_map_equals_the_validated_one():
    f = _fold("*t", random_map(3, (2, 1, 3), 2, seed=80))
    fields = [k.name for k in dataclasses.fields(MultiMap)]
    for m in (
        tensor_module._checked(f.name, f.input_dims, f.codomain_dim, f.axis_labels, f.entries),
        tensor_module._checked("s", f.input_dims, f.codomain_dim, f.axis_labels, f.entries * 2, 2),
        compose_into_slot(f, random_map(1, (2,), f.input_dims[0], seed=81), 1),
        slice_slot(f, 3, vector(range(f.input_dims[2]))),
    ):
        validated = MultiMap(**{k: getattr(m, k) for k in fields})
        assert m == validated and validated == m
        assert hash(m) == hash(validated) and repr(m) == repr(validated)


_M2 = from_function("m", (2, 2), 2, lambda *_: 0)

# each refusal of the public tensor calls: the call, its exception type and message
REFUSALS = {
    "label count": (lambda: MultiMap("g", 1, (2,), 2, ("out",), (0,) * 4),
                    ShapeMismatch, "g: need 2 axis labels"),
    "entry out of range": (lambda: _M2.entry((0, 2, 0)),
                           DimensionMismatch, "index (0, 2, 0) out of range for (2, 2, 2)"),
    "transpose axis order": (lambda: tensor_module.transpose(_M2, (0, 1, 1)),
                             ShapeMismatch, "bad axis order (0, 1, 1) for arity 2"),
    "transpose labels": (lambda: tensor_module.transpose(_M2, (0, 2, 1), labels=("a", "a", "b")),
                         ShapeMismatch, "need 3 unique axis labels, got ('a', 'a', 'b')"),
    "compose slot range": (lambda: compose_into_slot(_M2, _M2, 3),
                           ShapeMismatch, "slot 3 out of range for arity 2"),
    "codomain post map": (lambda: compose_codomain(_M2, _M2),
                          ShapeMismatch, "m: codomain composition needs a linear map"),
    "slice the only input": (
        lambda: slice_slot(from_function("v", (2,), 2, lambda *_: 0), 1, vector((1, 0))),
        ShapeMismatch, "cannot slice the only input away"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_pinned(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
