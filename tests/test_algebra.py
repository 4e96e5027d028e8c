from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc.algebra import (
    GROUP_FIXTURES,
    AlgebraModel,
    BanachModuleModel,
    CayleyTable,
    GRID_COORDS,
    ConstraintViolated,
    InvalidAlgebra,
    InvalidCayleyTable,
    cayley_fixture,
    extensions,
    group_algebra,
    matrix_algebra,
    nested_bilinear_check,
    regular_module,
    regularity_check,
    sample_grid,
    slice_bridge_check,
    truncated_poly_algebra,
)
from arenscalc import semantics, tensor
from arenscalc.expr import parse
from arenscalc.semantics import ARENS_FLIPS, EXTENSION_FLIPS, default_labels, extension_expr
from arenscalc.tensor import (
    DimensionMismatch,
    MultiMap,
    basis_vector,
    equal,
    evaluate,
    from_function,
    random_map,
    realize,
    vector,
)

from perturbation import perturb, perturbed_entries

# a latin square with identity 0 that is not associative (order-5 loop);
# t[t[1][1]][2] = 2 but t[1][t[1][2]] = 4
NONASSOC_LOOP = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 3, 4, 0, 1),
    (3, 4, 1, 2, 0),
    (4, 2, 0, 1, 3),
)


# ---------------------------------------------------------------------------
# Cayley tables


def test_cayley_table_valid_cyclic():
    t = CayleyTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), 0)
    assert t.product(1, 2) == 0
    assert t.product(2, 2) == 1


def test_cayley_table_rejects_wrong_shape():
    with pytest.raises(InvalidCayleyTable):
        CayleyTable(2, ((0, 1),), 0)


def test_cayley_table_rejects_non_permutation_row():
    with pytest.raises(InvalidCayleyTable, match="row"):
        CayleyTable(2, ((0, 0), (0, 1)), 0)


def test_cayley_table_rejects_bad_identity():
    # 0 is not an identity for this (valid) z2-like square relabeled
    with pytest.raises(InvalidCayleyTable):
        CayleyTable(2, ((1, 0), (0, 1)), 0)


def test_cayley_table_rejects_non_associative_loop():
    with pytest.raises(InvalidCayleyTable, match="associativity"):
        CayleyTable(5, NONASSOC_LOOP, 0)


def test_fixture_orders():
    assert cayley_fixture("z2").order == 2
    assert cayley_fixture("z3").order == 3
    assert cayley_fixture("z4").order == 4
    assert cayley_fixture("s3").order == 6


def test_s3_is_non_abelian():
    t = cayley_fixture("s3")
    assert any(
        t.product(i, j) != t.product(j, i)
        for i in range(6)
        for j in range(6)
    )


def test_unknown_fixture_name():
    with pytest.raises(InvalidCayleyTable):
        cayley_fixture("z5")


# ---------------------------------------------------------------------------
# group algebras


def test_trivial_group_algebra():
    model, triple = group_algebra(CayleyTable(1, ((0,),), 0))
    assert model.multiplication.entries == (Fraction(1),)
    assert triple.entries == (Fraction(1),)


def test_z2_triple_convolution_entries():
    t = cayley_fixture("z2")
    model, triple = group_algebra(t)
    # delta_g * delta_g * delta_e = delta_e  (g has order two)
    out = evaluate(
        triple, [basis_vector(2, 1), basis_vector(2, 1), basis_vector(2, 0)]
    )
    assert out == basis_vector(2, 0)
    # brute-force oracle over the whole table
    for i, j, k in product(range(2), repeat=3):
        expected = t.product(t.product(i, j), k)
        got = evaluate(
            triple, [basis_vector(2, i), basis_vector(2, j), basis_vector(2, k)]
        )
        assert got == basis_vector(2, expected)


def test_triple_map_is_stacked_product():
    from arenscalc.tensor import compose_into_slot

    model, triple = group_algebra(cayley_fixture("z3"))
    pi = model.multiplication
    stacked = compose_into_slot(pi, pi, 1, name="pipi")
    assert equal(triple, stacked).equal


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_group_tables_match_the_entrywise_oracle(name):
    t = cayley_fixture(name)
    n = t.order
    want_pi = from_function("pi", (n, n), n, lambda l, i, j: 1 if t.product(i, j) == l else 0)
    want_conv3 = from_function(
        "conv3", (n, n, n), n, lambda l, i, j, k: 1 if t.product(t.product(i, j), k) == l else 0
    )
    model, triple = group_algebra(t)
    for got, want in ((model.multiplication, want_pi), (triple, want_conv3)):
        assert got == want
        assert got.lane == want.lane  # the lane the kernels read, held from the build


def test_group_model_validates():
    # the builders check nothing they build: every group fixture's
    # algebra and regular module are checked here instead
    for name in GROUP_FIXTURES:
        model, _ = group_algebra(cayley_fixture(name))
        model.validate()
        regular_module(model).validate()


# ---------------------------------------------------------------------------
# truncated polynomial algebra


def test_poly_product_truncates():
    model, delta = truncated_poly_algebra(3)
    pi = model.multiplication
    x2 = basis_vector(3, 2)
    assert evaluate(pi, [x2, x2]) == vector([0] * 3)
    x = basis_vector(3, 1)
    assert evaluate(pi, [x, x]) == x2


def test_poly_derivation_weights():
    _, delta = truncated_poly_algebra(3)
    assert evaluate(delta, [basis_vector(3, 0)]) == vector([0] * 3)
    assert evaluate(delta, [basis_vector(3, 1)]) == basis_vector(3, 1)
    assert evaluate(delta, [basis_vector(3, 2)]) == (0, 0, 2)


def test_poly_derivation_product_rule_brute_force():
    model, delta = truncated_poly_algebra(4)
    pi = model.multiplication
    for a, b in product(range(4), repeat=2):
        ea, eb = basis_vector(4, a), basis_vector(4, b)
        lhs = evaluate(delta, [evaluate(pi, [ea, eb])])
        rhs = vector(
            tuple(
                u + v
                for u, v in zip(
                    evaluate(pi, [evaluate(delta, [ea]), eb]),
                    evaluate(pi, [ea, evaluate(delta, [eb])]),
                )
            )
        )
        assert lhs == rhs


def test_poly_needs_degree_two():
    with pytest.raises(InvalidAlgebra):
        truncated_poly_algebra(1)


# ---------------------------------------------------------------------------
# matrix algebra


def test_matrix_units_multiply():
    model = matrix_algebra(2)
    mult = model.multiplication
    e11, e12, e21, e22 = (basis_vector(4, k) for k in range(4))
    assert evaluate(mult, [e11, e12]) == e12
    assert evaluate(mult, [e12, e11]) == vector([0] * 4)
    assert evaluate(mult, [e12, e21]) == e11
    assert evaluate(mult, [e21, e12]) == e22
    assert model.unit == vector((1, 0, 0, 1))


def test_matrix_associativity_all_triples():
    model = matrix_algebra(2)
    mult = model.multiplication
    es = [basis_vector(4, k) for k in range(4)]
    for a, b, c in product(es, repeat=3):
        left = evaluate(mult, [evaluate(mult, [a, b]), c])
        right = evaluate(mult, [a, evaluate(mult, [b, c])])
        assert left == right


def test_matrix_scalar_case():
    model = matrix_algebra(1)
    assert model.dim == 1
    assert model.multiplication.entries == (Fraction(1),)


# ---------------------------------------------------------------------------
# modules and the two extension products


def test_regular_module_laws():
    model, _ = truncated_poly_algebra(3)
    mod = regular_module(model)
    mod.validate()
    assert mod.carrier_dim == 3


def test_module_law_violation_detected():
    model, _ = truncated_poly_algebra(2)
    bad_left = from_function("l", (2, 2), 2, lambda l, a, x: 1)
    right = regular_module(model).right_action
    with pytest.raises(InvalidAlgebra):
        BanachModuleModel(model, 2, bad_left, right).validate()


def test_arens_products_reproduce_base_map():
    for builder in ("z2", "s3"):
        model, _ = group_algebra(cayley_fixture(builder))
        pi = model.multiplication
        first, second = extensions(pi, ARENS_FLIPS).values()
        assert equal(first, pi).equal
        assert equal(second, pi).equal


def test_arens_products_random_bilinear():
    m = random_map(2, (2, 2), 2, seed=99, name="m")
    first, second = extensions(m, ARENS_FLIPS).values()
    assert equal(first, m).equal
    assert equal(second, m).equal
    assert regularity_check(m).equal
    with pytest.raises(DimensionMismatch, match="need a bilinear map, got arity 3"):
        regularity_check(random_map(3, (2, 2, 2), 2, seed=99))


def test_arens_product_words_are_pinned():
    pi = group_algebra(cayley_fixture("z2"))[0].multiplication
    assert [m.name for m in extensions(pi, ARENS_FLIPS).values()] == ["pi^{***}", "pi^{r***r}"]
    assert regularity_check(pi).render() == "PASS  pi^{***} == pi^{r***r}"


# ---------------------------------------------------------------------------
# slice bridge


def test_extensions_fold_each_word_once_per_arity(monkeypatch):
    calls = []
    real = semantics.axis_semantics

    def counting(expr, base_arity=3):
        calls.append(expr)
        return real(expr, base_arity)

    tensor.prepared.cache_clear()
    monkeypatch.setattr(semantics, "axis_semantics", counting)
    extensions(random_map(3, (1, 2, 3), 2, seed=5), EXTENSION_FLIPS)
    assert len(calls) == 6
    g = random_map(3, (3, 1, 2), 4, seed=6, name="g")
    exts = extensions(g, EXTENSION_FLIPS)
    assert len(calls) == 6  # the second map of arity 3 folds nothing
    for lead in EXTENSION_FLIPS:
        assert exts[lead] == realize(extension_expr(lead, "g"), g)


def test_slice_bridge_zero_map():
    f = from_function("f", (2, 2, 2), 2, lambda *_: 0)
    sliced, rows = slice_bridge_check(f, vector((1, 1)))
    assert all(ok for _, ok, _ in rows)
    assert all(v == 0 for v in sliced.entries)


def test_slice_bridge_scalar_entries():
    f = from_function("f", (1, 1, 1), 1, lambda *_: 2)
    sliced, rows = slice_bridge_check(f, vector((3,)))
    assert all(ok for _, ok, _ in rows)
    assert sliced.entries == (Fraction(6),)


def test_slice_bridge_convolution_contraction_oracle():
    model, triple = group_algebra(cayley_fixture("z2"))
    wstar = vector((1, 0))
    m, rows = slice_bridge_check(triple, wstar)
    assert all(ok for _, ok, _ in rows)
    # <m(y,z), x> = <w*, f(x,y,z)>, so m[l; j, k] contracts the
    # codomain axis of the base map against w*
    for l, j, k in product(range(2), repeat=3):
        want = sum(
            wstar[w] * triple.entry((w, l, j, k)) for w in range(2)
        )
        assert m.entry((l, j, k)) == want


def test_slice_bridge_random_passes():
    f = random_map(3, (2, 3, 2), 2, seed=5)
    _, rows = slice_bridge_check(f, vector((2, -1)))
    assert all(ok for _, ok, _ in rows)
    assert len(rows) == 3


def test_slice_bridge_remark_detail_is_pinned(perturb_realized):
    perturb_realized("f^{s****t}")
    _, rows = slice_bridge_check(random_map(3, (2, 3, 2), 2, seed=5), vector((2, -1)))
    assert rows == (
        ("slice bridge identity", True, "PASS  f^{s******}|s2 == f^{s*}|s1^{****}"),
        (
            "sliced map extension comparison",
            True,
            "PASS  f^{s*}|s1^{***} == f^{s*}|s1^{r***r}",
        ),
        (
            "cycled-vs-reversed extension remark",
            False,
            "FAIL  f^{s****t} != f^{r****r} at index [0, 0, 0, 0]: 0 vs -1",
        ),
    )


# ---------------------------------------------------------------------------
# nested bilinear constraint


def test_nested_zero_inner_accepted():
    f = random_map(3, (2, 2, 2), 2, seed=3, name="f")
    zero2 = from_function("m", (2, 2), 2, lambda *_: 0)
    rows = nested_bilinear_check(f, zero2, zero2)
    assert all(ok for _, ok, _ in rows)


def test_nested_scalar_constant_rejected():
    one = from_function("f", (1, 1, 1), 1, lambda *_: 1)
    inner = from_function("m", (1, 1), 1, lambda *_: 1)
    cand = from_function("th", (1, 1), 1, lambda *_: 1)
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(one, inner, cand)
    assert exc_info.value.point is not None


def test_nested_check_fails_where_the_pointwise_scan_does():
    # x and y of different dims, so a slice at the wrong slot cannot pass
    f = random_map(3, (2, 3, 2), 2, seed=5, name="f")
    inner = random_map(2, (2, 3), 2, seed=6, name="m")
    cand = random_map(2, (2, 3), 2, seed=7, name="th")
    x, y, got, want = next(
        (x, y, got, want)
        for x in sample_grid(2)
        for y in sample_grid(3)
        if (got := evaluate(cand, [x, y])) != (want := evaluate(f, [x, y, evaluate(inner, [x, y])]))
    )
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(f, inner, cand)
    assert exc_info.value.point == (x, y)
    assert str(exc_info.value) == (
        f"candidate disagrees at x={tuple(map(str, x))}, y={tuple(map(str, y))}: "
        f"{tuple(map(str, got))} vs {tuple(map(str, want))}"
    )
    zero = from_function("m", (2, 3), 2, lambda *_: 0)
    assert len(nested_bilinear_check(f, zero, zero)) == 3


def _scan_reference(f, inner, cand):
    """The nested check's scan restated: three ``evaluate`` calls per grid
    point; the first failing point and its message, or None."""
    for x in sample_grid(f.input_dims[0]):
        for y in sample_grid(f.input_dims[1]):
            got, want = evaluate(cand, [x, y]), evaluate(f, [x, y, evaluate(inner, [x, y])])
            if got != want:
                return (x, y), (
                    f"candidate disagrees at x={tuple(map(str, x))}, y={tuple(map(str, y))}: "
                    f"{tuple(map(str, got))} vs {tuple(map(str, want))}"
                )
    return None


NESTED_ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nested_check_fails_where_the_evaluate_scan_does(data):
    # x up to dim 6, past the full grid; entries with denominators above 1
    dx, dy = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    dz, dl = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def draw(name, dims, cod, zero=False):
        size = cod * prod(dims)
        vals = [0] * size if zero else data.draw(
            st.lists(NESTED_ENTRIES, min_size=size, max_size=size)
        )
        labels = default_labels(len(dims))
        return MultiMap(name, len(dims), dims, cod, labels, tuple(map(Fraction, vals)))

    f = draw("f", (dx, dy, dz), dl)
    inner = draw("m", (dx, dy), dz, zero=data.draw(st.booleans(), label="zero inner"))
    # the zero candidate, right when inner is zero, with one entry perturbed
    cand = draw("th", (dx, dy), dl, zero=True)
    pos = data.draw(st.integers(0, len(cand.entries) - 1), label="perturbed position")
    step = data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5, 7)]))
    cand = MultiMap("th", 2, (dx, dy), dl, cand.axis_labels,
                    cand.entries[:pos] + (step,) + cand.entries[pos + 1:])
    point, message = _scan_reference(f, inner, cand)
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(f, inner, cand)
    assert exc_info.value.point == point
    assert str(exc_info.value) == message


def test_nested_check_varies_every_coordinate_past_dim_4():
    # (x0 - x1).y is not the zero map that f(x, y, inner(x, y)) is; a grid
    # that holds x0 and x1 fixed cannot tell the two apart
    f = from_function("f", (6, 1, 1), 1, lambda *_: 0)
    inner = from_function("m", (6, 1), 1, lambda *_: 0)
    cand = from_function("th", (6, 1), 1, lambda l, a, b: {0: 1, 1: -1}.get(a, 0))
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(f, inner, cand)
    x, y = exc_info.value.point
    assert x[0] != x[1] and y != (0,)


def test_nested_shape_mismatch():
    f = random_map(3, (2, 2, 2), 2, seed=3)
    inner = from_function("m", (2, 2), 3, lambda *_: 0)
    cand = from_function("th", (2, 2), 2, lambda *_: 0)
    with pytest.raises(DimensionMismatch):
        nested_bilinear_check(f, inner, cand)


def test_sample_grid_deterministic_and_bounded():
    g1 = sample_grid(2)
    g2 = sample_grid(2)
    assert g1 == g2
    assert len(g1) == 16
    assert len(sample_grid(4)) == 256
    assert sample_grid(4) == tuple(map(vector, product(GRID_COORDS, repeat=4)))
    # past dim 4: the full grid's points with at most two nonzero
    # coordinates, in its order, so every coordinate takes every value
    assert sample_grid(5) == tuple(
        vector(p) for p in product(GRID_COORDS, repeat=5) if p.count(0) >= 3
    )
    for dim, size in ((5, 106), (6, 154), (9, 352)):
        grid = sample_grid(dim)
        assert len(grid) == size == 1 + 3 * dim + 9 * dim * (dim - 1) // 2
        assert all(sorted(set(col)) == list(GRID_COORDS) for col in zip(*grid))


# ---------------------------------------------------------------------------
# complete regularity of group convolutions


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_group_convolution_completely_regular(name):
    from arenscalc.semantics import natural_extensions

    _, triple = group_algebra(cayley_fixture(name))
    exts = [realize(expr, triple) for expr, _ in natural_extensions(triple.name)]
    for other in exts[1:]:
        assert equal(exts[0], other).equal


# ---------------------------------------------------------------------------
# the structure checks as tensor equations, against the basis-loop scans
#
# The reference functions restate the scans the checks are defined by:
# every basis tuple in lexicographic order, one evaluate per side, the
# first failure reported.  Inputs are fixtures with at most one entry
# perturbed by a nonzero rational, so the tensor equations must find the
# same first failing tuple and give the same message.

def _error(check) -> str | None:
    try:
        check()
    except InvalidAlgebra as exc:
        return str(exc)
    return None


def _ref_algebra_error(model: AlgebraModel) -> str | None:
    pi, names = model.multiplication, model.basis_names
    es = [basis_vector(model.dim, k) for k in range(model.dim)]
    for i, j, k in product(range(model.dim), repeat=3):
        left = evaluate(pi, [evaluate(pi, [es[i], es[j]]), es[k]])
        right = evaluate(pi, [es[i], evaluate(pi, [es[j], es[k]])])
        if left != right:
            return f"associativity fails at ({names[i]}, {names[j]}, {names[k]})"
    for k in range(model.dim):
        if evaluate(pi, [model.unit, es[k]]) != es[k] or evaluate(pi, [es[k], model.unit]) != es[k]:
            return f"unit law fails at basis {names[k]}"
    return None


def _ref_module_error(mod: BanachModuleModel) -> str | None:
    n, d = mod.algebra.dim, mod.carrier_dim
    pi, lact, ract = mod.algebra.multiplication, mod.left_action, mod.right_action
    ea = [basis_vector(n, i) for i in range(n)]
    ex = [basis_vector(d, i) for i in range(d)]
    for i, j, m in product(range(n), range(n), range(d)):
        ab = evaluate(pi, [ea[i], ea[j]])
        if evaluate(lact, [ab, ex[m]]) != evaluate(lact, [ea[i], evaluate(lact, [ea[j], ex[m]])]):
            return f"left module law fails at ({i}, {j}, {m})"
        if evaluate(ract, [ex[m], ab]) != evaluate(ract, [evaluate(ract, [ex[m], ea[i]]), ea[j]]):
            return f"right module law fails at ({m}, {i}, {j})"
        if evaluate(lact, [ea[i], evaluate(ract, [ex[m], ea[j]])]) != evaluate(
            ract, [evaluate(lact, [ea[i], ex[m]]), ea[j]]
        ):
            return f"action compatibility fails at ({i}, {m}, {j})"
    return None


def _ref_product_rule_error(pi: MultiMap, delta: MultiMap) -> str | None:
    n = delta.codomain_dim
    es = [basis_vector(n, k) for k in range(n)]
    for a, b in product(range(n), repeat=2):
        lhs = evaluate(delta, [evaluate(pi, [es[a], es[b]])])
        rhs = tuple(
            u + v
            for u, v in zip(
                evaluate(pi, [evaluate(delta, [es[a]]), es[b]]),
                evaluate(pi, [es[a], evaluate(delta, [es[b]])]),
            )
        )
        if lhs != rhs:
            return f"product rule fails at (x^{a}, x^{b})"
    return None


def character_module(model: AlgebraModel, chi) -> BanachModuleModel:
    """The algebra acting on a line through a character chi (carrier dim 1)."""
    n = model.dim
    lact = from_function("l", (n, 1), 1, lambda l, a, x: chi[a])
    ract = from_function("r", (1, n), 1, lambda l, x, a: chi[a])
    return BanachModuleModel(model, 1, lact, ract)


def doubled_module(model: AlgebraModel) -> BanachModuleModel:
    """The algebra acting on two copies of itself (carrier dim 2n)."""
    n, pi = model.dim, model.multiplication

    def act(l, a, x, left):
        if l // n != x // n:
            return 0
        return pi.entry((l % n, a, x % n) if left else (l % n, x % n, a))

    lact = from_function("l", (n, 2 * n), 2 * n, lambda l, a, x: act(l, a, x, True))
    ract = from_function("r", (2 * n, n), 2 * n, lambda l, x, a: act(l, a, x, False))
    return BanachModuleModel(model, 2 * n, lact, ract)


ALGEBRAS = {
    "poly2": truncated_poly_algebra(2)[0],
    "poly3": truncated_poly_algebra(3)[0],
    "matrix2": matrix_algebra(2),
    "z3": group_algebra(cayley_fixture("z3"))[0],
    "s3": group_algebra(cayley_fixture("s3"))[0],
}

MODULES = {
    "poly3-regular": regular_module(ALGEBRAS["poly3"]),
    "matrix2-regular": regular_module(ALGEBRAS["matrix2"]),
    "s3-regular": regular_module(ALGEBRAS["s3"]),
    "poly3-at-zero": character_module(ALGEBRAS["poly3"], (1, 0, 0)),
    "z3-trivial": character_module(ALGEBRAS["z3"], (1, 1, 1)),
    "poly2-doubled": doubled_module(ALGEBRAS["poly2"]),
    "z3-doubled": doubled_module(ALGEBRAS["z3"]),
}


def test_modules_off_the_algebra_dim_are_valid():
    for name in ("poly3-at-zero", "z3-trivial", "poly2-doubled", "z3-doubled"):
        mod = MODULES[name]
        assert mod.carrier_dim != mod.algebra.dim
        mod.validate()
        assert _ref_module_error(mod) is None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_algebra_validate_matches_basis_scan(name, data):
    model = ALGEBRAS[name]
    target = data.draw(st.sampled_from(("pi", "unit")), label="target")
    if target == "pi":
        model = AlgebraModel(
            model.dim, perturb(data, model.multiplication), model.unit, model.basis_names
        )
    else:
        unit = perturbed_entries(data, model.unit)
        model = AlgebraModel(model.dim, model.multiplication, unit, model.basis_names)
    assert _error(model.validate) == _ref_algebra_error(model)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.data())
def test_module_validate_matches_basis_scan(name, data):
    mod = MODULES[name]
    alg = mod.algebra
    target = data.draw(st.sampled_from(("pi", "left", "right")), label="target")
    pi, lact, ract = alg.multiplication, mod.left_action, mod.right_action
    if target == "pi":
        pi = perturb(data, pi)
    elif target == "left":
        lact = perturb(data, lact)
    else:
        ract = perturb(data, ract)
    mod = BanachModuleModel(
        AlgebraModel(alg.dim, pi, alg.unit, alg.basis_names), mod.carrier_dim, lact, ract
    )
    assert _error(mod.validate) == _ref_module_error(mod)


@pytest.mark.parametrize("n", range(2, 7))
def test_poly_fixtures_validate_and_obey_the_product_rule(n):
    model, delta = truncated_poly_algebra(n)
    model.validate()
    regular_module(model).validate()
    assert _ref_product_rule_error(model.multiplication, delta) is None


@pytest.mark.parametrize("k", range(1, 4))
def test_matrix_fixtures_validate(k):
    model = matrix_algebra(k)
    model.validate()
    regular_module(model).validate()


def test_structure_messages_are_pinned():
    model = ALGEBRAS["poly3"]
    pi = model.multiplication
    bumped = MultiMap(
        pi.name, 2, pi.input_dims, pi.codomain_dim, pi.axis_labels,
        tuple(v + (k == 0) for k, v in enumerate(pi.entries)),
    )
    bumped_model = AlgebraModel(3, bumped, model.unit, model.basis_names)
    assert _error(bumped_model.validate) == _ref_algebra_error(bumped_model) == (
        "associativity fails at (1, 1, x)"
    )
    mod = MODULES["poly2-doubled"]
    ract = mod.right_action
    bad_right = MultiMap(
        ract.name, 2, ract.input_dims, ract.codomain_dim, ract.axis_labels,
        tuple(v + (k == len(ract.entries) - 1) for k, v in enumerate(ract.entries)),
    )
    bad = BanachModuleModel(mod.algebra, 4, mod.left_action, bad_right)
    assert _error(bad.validate) == _ref_module_error(bad) == "right module law fails at (2, 1, 1)"


def test_structure_law_checks_refuse_a_stack_in_either_order():
    # a stack of a lawful and an unlawful map is refused whichever comes
    # first, as every other reader of one map refuses it
    zero = from_function("pi", (3, 3), 3, lambda *_: 0)
    nonassoc = from_function("pi", (3, 3), 3, lambda l, a, b: (a, b, l) == (0, 1, 1))
    with pytest.raises(InvalidAlgebra, match="associativity fails"):
        AlgebraModel(3, nonassoc, None, ("a", "b", "c")).validate()
    one_map = "a stack of 2 maps, where one map is needed"
    for pair in ([zero, nonassoc], [nonassoc, zero]):
        with pytest.raises(tensor.ShapeMismatch, match=one_map):
            AlgebraModel(3, tensor.stack(pair), None, ("a", "b", "c")).validate()
    model = truncated_poly_algebra(3)[0]
    pi = model.multiplication
    stacked = model._replace(multiplication=tensor.stack([pi, pi]))
    for pair in ([pi, nonassoc], [nonassoc, pi]):
        for left, right in ((tensor.stack(pair), stacked.multiplication),
                            (stacked.multiplication, tensor.stack(pair))):
            with pytest.raises(tensor.ShapeMismatch, match=one_map):
                BanachModuleModel(stacked, 3, left, right).validate()


def test_nested_check_refuses_a_stack():
    f = tensor.random_map(3, (2, 2, 2), 2, seed=3)
    m = from_function("m", (2, 2), 2, lambda *_: 0)
    with pytest.raises(tensor.ShapeMismatch, match="a stack of 2 maps, where one map is needed"):
        nested_bilinear_check(tensor.stack([f, f]), m, m)
