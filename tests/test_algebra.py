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

from .oracle import (
    algebra_error,
    apply,
    basis_tuples,
    character_module,
    doubled_module,
    draw_fractions,
    module_error,
    nested_scan,
    perturb,
    perturbed_entries,
    plus,
    product_rule_error,
)

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
    assert t.table[1][2] == 0
    assert t.table[2][2] == 1


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
        t.table[i][j] != t.table[j][i]
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
    triple = apply(group_algebra(t)[1])
    # delta_g * delta_g * delta_e = delta_e  (g has order two)
    assert triple(1, 1, 0) == basis_vector(2, 0)
    for i, j, k in basis_tuples((2, 2, 2)):
        assert triple(i, j, k) == basis_vector(2, t.table[t.table[i][j]][k])


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
    want_pi = from_function("pi", (n, n), n, lambda l, i, j: 1 if t.table[i][j] == l else 0)
    want_conv3 = from_function(
        "conv3", (n, n, n), n, lambda l, i, j, k: 1 if t.table[t.table[i][j]][k] == l else 0
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
        rhs = plus(evaluate(pi, [evaluate(delta, [ea]), eb]),
                   evaluate(pi, [ea, evaluate(delta, [eb])]))
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
    mult = matrix_algebra(2).multiplication
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
    assert nested_scan(f, inner, cand) is not None
    _check_against_scan(f, inner, cand)
    zero = from_function("m", (2, 3), 2, lambda *_: 0)
    assert len(nested_bilinear_check(f, zero, zero)) == 3


def _check_against_scan(f, inner, cand):
    """The grid-wide check raises at the scan's first failing point, with
    its message and point, or passes where the scan finds none."""
    failing = nested_scan(f, inner, cand)
    if failing is None:
        assert len(nested_bilinear_check(f, inner, cand)) == 3
        return
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(f, inner, cand)
    assert (exc_info.value.point, str(exc_info.value)) == failing


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nested_check_fails_where_the_evaluate_scan_does(data):
    # x and y up to dim 6, past the full grid; entries with denominators
    # above 1; a candidate mostly perturbed, and kept at small dims, where
    # the scan reads the whole grid, when it may pass
    perturbed = data.draw(st.integers(0, 3), label="perturbed") > 0
    dx, dy = (data.draw(st.integers(1, 6 if perturbed else 3)) for _ in "xy")
    dz, dl = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def draw(name, dims, cod, zero=False):
        size = cod * prod(dims)
        vals = (Fraction(0),) * size if zero else draw_fractions(data, size, 9, 12)
        return MultiMap(name, len(dims), dims, cod, default_labels(len(dims)), vals)

    f = draw("f", (dx, dy, dz), dl)
    inner = draw("m", (dx, dy), dz, zero=data.draw(st.booleans(), label="zero inner"))
    # the zero candidate, right when inner is zero, or with one entry perturbed
    cand = draw("th", (dx, dy), dl, zero=True)
    if perturbed:
        pos = data.draw(st.integers(0, len(cand.entries) - 1), label="perturbed position")
        step = data.draw(st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5, 7)]))
        cand = MultiMap("th", 2, (dx, dy), dl, cand.axis_labels,
                        cand.entries[:pos] + (step,) + cand.entries[pos + 1:])
    _check_against_scan(f, inner, cand)


@pytest.mark.parametrize("dims", [(5, 6, 2, 2), (1, 5, 3, 1), (6, 1, 1, 2), (2, 2, 2, 2)])
def test_nested_check_on_drawn_maps_matches_the_scan_past_dim_4(dims):
    # y past dim 4 reads every point of the two-nonzero grid at once
    dx, dy, dz, dl = dims
    f = random_map(3, (dx, dy, dz), dl, seed=sum(dims), name="f")
    inner = random_map(2, (dx, dy), dz, seed=dx, name="m")
    for cand in (random_map(2, (dx, dy), dl, seed=dy, name="th"),
                 from_function("th", (dx, dy), dl, lambda *_: 0)):
        _check_against_scan(f, inner, cand)
    if dx * dy <= 5:  # a passing check: the scan reads the whole grid
        zero = from_function("m", (dx, dy), dz, lambda *_: 0)
        _check_against_scan(f, zero, from_function("th", (dx, dy), dl, lambda *_: 0))


def test_nested_check_compares_values_over_different_denominators():
    # f(x, y, inner(x, y)) = (1/2)(2/3) x^2 y^2 meets th = (1/3) x y at
    # x = y = -1, where their lanes hold 2/6 and 1/3, before failing at y = 1
    f = from_function("f", (1, 1, 1), 1, lambda *_: Fraction(1, 2))
    inner = from_function("m", (1, 1), 1, lambda *_: Fraction(2, 3))
    cand = from_function("th", (1, 1), 1, lambda *_: Fraction(1, 3))
    _check_against_scan(f, inner, cand)
    with pytest.raises(ConstraintViolated) as exc_info:
        nested_bilinear_check(f, inner, cand)
    assert exc_info.value.point == (vector([-1]), vector([1]))


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
# The oracle's references restate the scans the checks are defined by:
# every basis tuple in lexicographic order, the first failure reported.
# Inputs are fixtures with at most one entry
# perturbed by a nonzero rational, so the tensor equations must find the
# same first failing tuple and give the same message.

def _error(check) -> str | None:
    try:
        check()
    except InvalidAlgebra as exc:
        return str(exc)
    return None


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
        assert module_error(mod) is None


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
    assert _error(model.validate) == algebra_error(model)


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
    assert _error(mod.validate) == module_error(mod)


@pytest.mark.parametrize("n", range(2, 7))
def test_poly_fixtures_validate_and_obey_the_product_rule(n):
    model, delta = truncated_poly_algebra(n)
    model.validate()
    regular_module(model).validate()
    assert product_rule_error(model.multiplication, delta) is None


@pytest.mark.parametrize("k", range(1, 4))
def test_matrix_fixtures_validate(k):
    model = matrix_algebra(k)
    model.validate()
    regular_module(model).validate()
    assert algebra_error(model) is None


def test_structure_messages_are_pinned():
    model = ALGEBRAS["poly3"]
    pi = model.multiplication
    bumped = MultiMap(
        pi.name, 2, pi.input_dims, pi.codomain_dim, pi.axis_labels,
        tuple(v + (k == 0) for k, v in enumerate(pi.entries)),
    )
    bumped_model = AlgebraModel(3, bumped, model.unit, model.basis_names)
    assert _error(bumped_model.validate) == algebra_error(bumped_model) == (
        "associativity fails at (1, 1, x)"
    )
    mod = MODULES["poly2-doubled"]
    ract = mod.right_action
    bad_right = MultiMap(
        ract.name, 2, ract.input_dims, ract.codomain_dim, ract.axis_labels,
        tuple(v + (k == len(ract.entries) - 1) for k, v in enumerate(ract.entries)),
    )
    bad = BanachModuleModel(mod.algebra, 4, mod.left_action, bad_right)
    assert _error(bad.validate) == module_error(bad) == "right module law fails at (2, 1, 1)"


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


_PI2 = from_function("pi", (2, 2), 2, lambda *_: 0)
_POLY3 = truncated_poly_algebra(3)[0]
_F3 = random_map(3, (2, 2, 2), 2, seed=1, name="f")

# each refusal of the public algebra calls: the call, its exception type and message
REFUSALS = {
    "identity index": (lambda: CayleyTable(2, ((0, 1), (1, 0)), 2),
                       InvalidCayleyTable, "identity index 2 out of range"),
    "latin rows, repeated column": (lambda: CayleyTable(2, ((0, 1), (0, 1)), 0),
                                    InvalidCayleyTable, "column 0 is not a permutation"),
    "product shape": (lambda: AlgebraModel(3, _PI2, None, ("a", "b", "c")).validate(),
                      InvalidAlgebra, "product shape (2, 2, 2) does not match dim 3"),
    "basis names": (lambda: AlgebraModel(2, _PI2, None, ("a",)).validate(),
                    InvalidAlgebra, "one basis name per dimension"),
    "unit length": (lambda: _POLY3._replace(unit=vector((1, 0))).validate(),
                    InvalidAlgebra, "unit has wrong dimension"),
    "matrix_algebra(0)": (lambda: matrix_algebra(0), InvalidAlgebra, "need k >= 1"),
    "left action shape": (lambda: regular_module(_POLY3)._replace(left_action=_PI2).validate(),
                          InvalidAlgebra, "left action shape (2, 2, 2)"),
    "right action shape": (lambda: regular_module(_POLY3)._replace(right_action=_PI2).validate(),
                           InvalidAlgebra, "right action shape (2, 2, 2)"),
    "bridge arity": (lambda: slice_bridge_check(_PI2, vector((1, 0))),
                     DimensionMismatch, "pi: need a tri-linear map"),
    "bridge functionals of a stack": (
        lambda: slice_bridge_check(tensor.stack([_F3, _F3]), vector((1, 0))),
        DimensionMismatch, "functional dim 2 vs codomain dim 2 x 2"),
    "nested arities": (lambda: nested_bilinear_check(_PI2, _PI2, _PI2),
                       DimensionMismatch, "need arities 3, 2, 2"),
    "nested candidate shape": (
        lambda: nested_bilinear_check(_F3, _PI2, from_function("th", (2, 2), 3, lambda *_: 0)),
        DimensionMismatch, "candidate (3, 2, 2) does not match (2, 2, 2, 2)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_pinned(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
