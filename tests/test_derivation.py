from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc.algebra import (
    AlgebraModel,
    BanachModuleModel,
    InvalidAlgebra,
    extensions,
    matrix_algebra,
    regular_module,
    truncated_poly_algebra,
)
import arenscalc.algebra as algebra_module
import arenscalc.derivation as derivation_module
import arenscalc.tensor as tensor_module
from arenscalc.derivation import (
    FIXTURE_NAMES,
    _family,
    _family_rows,
    TriDerivationCandidate,
    composite_extension_checks,
    derivation_fixture,
    dual_action_composite,
    fourth_adjoint_check,
    is_tri_derivation,
    leibniz_sum,
    right_action_composite,
)
from arenscalc.semantics import ARENS_FLIPS
from arenscalc.suites import run_derivation_suite
from arenscalc.tensor import (
    MultiMap,
    ShapeMismatch,
    adjoint,
    basis_vector,
    compose_into_slot,
    default_labels,
    equal,
    from_function,
    slice_slot,
    transpose,
    vector,
)

from .oracle import apply, basis_tuples, character_module, doubled_module, perturb, plus
from .oracle import slot_witnesses

# ---------------------------------------------------------------------------
# independent oracle for the degree-weighted fixture
#
# Polynomials modulo x^3 as coefficient triples.  The candidate sends a
# monomial triple (x^a, x^b, x^c) to abc.x^(a+b+c-1).  The three slot
# identities are verified here with plain integer arithmetic, touching
# none of the tensor machinery.

N = 3


def _mono(k):
    return tuple(1 if i == k else 0 for i in range(N))


def _scale(c, u):
    return tuple(c * x for x in u)


def _add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _mul(u, v):
    out = [0] * N
    for a in range(N):
        for b in range(N):
            if a + b < N:
                out[a + b] += u[a] * v[b]
    return tuple(out)


def _d_mono(a, b, c):
    deg = a + b + c - 1
    out = [0] * N
    if 0 <= deg < N:
        out[deg] = a * b * c
    return tuple(out)


def test_degree_weighted_identities_by_hand():
    zero = (0,) * N
    for a, b, c, d in product(range(N), repeat=4):
        # first slot: D(u.v, b, c) = D(u,b,c).v + u.D(v,b,c)
        prod = _mul(_mono(a), _mono(d))
        lhs = zero
        for deg, coeff in enumerate(prod):
            lhs = _add(lhs, _scale(coeff, _d_mono(deg, b, c)))
        rhs = _add(_mul(_d_mono(a, b, c), _mono(d)), _mul(_mono(a), _d_mono(d, b, c)))
        assert lhs == rhs
        # middle slot
        prod = _mul(_mono(b), _mono(d))
        lhs = zero
        for deg, coeff in enumerate(prod):
            lhs = _add(lhs, _scale(coeff, _d_mono(a, deg, c)))
        rhs = _add(_mul(_d_mono(a, b, c), _mono(d)), _mul(_mono(b), _d_mono(a, d, c)))
        assert lhs == rhs
        # last slot
        prod = _mul(_mono(c), _mono(d))
        lhs = zero
        for deg, coeff in enumerate(prod):
            lhs = _add(lhs, _scale(coeff, _d_mono(a, b, deg)))
        rhs = _add(_mul(_d_mono(a, b, c), _mono(d)), _mul(_mono(c), _d_mono(a, b, d)))
        assert lhs == rhs


def test_degree_weighted_fixture_matches_formula():
    d = apply(derivation_fixture("poly3-euler").tri_map)
    for a, b, c in basis_tuples((N, N, N)):
        assert d(a, b, c) == _d_mono(a, b, c)


# ---------------------------------------------------------------------------
# accepted candidates


def test_zero_candidate_passes():
    rep = is_tri_derivation(derivation_fixture("zero"))
    assert rep.holds
    assert "ok" in rep.render()


def test_degree_weighted_candidate_passes():
    rep = is_tri_derivation(derivation_fixture("poly3-euler"))
    assert rep.holds


def test_degree_weighted_candidate_is_nonzero():
    cand = derivation_fixture("poly3-euler")
    assert any(v != 0 for v in cand.tri_map.entries)


# ---------------------------------------------------------------------------
# rejected candidates, with pinned first witnesses (lexicographic scan)


def test_leibniz_sum_is_the_entrywise_sum_of_its_three_compositions():
    model, euler = truncated_poly_algebra(3)
    mod = regular_module(model)
    thirds = from_function("thirds", (3,), 3, lambda l, k: Fraction(l - 2 * k, 3 + k))
    triple = compose_into_slot(model.multiplication, model.multiplication, 1)
    for delta in (euler, thirds):
        terms = [compose_into_slot(triple, delta, k).entries for k in (1, 2, 3)]
        want = MultiMap("D", 3, (3, 3, 3), 3, default_labels(3),
                        tuple(u + v + w for u, v, w in zip(*terms)))
        got = leibniz_sum(mod, delta, "D")
        assert got == want
        assert got.lane == want.lane
    assert any(e.denominator > 1 for e in leibniz_sum(mod, thirds, "D").entries)
    narrow = from_function("narrow", (2,), 3, lambda l, k: l + k)
    with pytest.raises(ShapeMismatch, match=r"^D: 54 entries for shape \(3, 3, 3, 3\)$"):
        leibniz_sum(mod, narrow, "D")


def test_matrix2_inner_fixture_is_the_sum_of_its_inner_derivation():
    model = matrix_algebra(2)
    pi, m = model.multiplication, basis_vector(4, 1)
    left, right = slice_slot(pi, 1, m), slice_slot(pi, 2, m)
    inner = MultiMap("ad", 1, (4,), 4, default_labels(1),
                     tuple(u - v for u, v in zip(left.entries, right.entries)))
    want = leibniz_sum(regular_module(model), inner, "D")
    assert derivation_fixture("matrix2-inner").tri_map == want


def test_sum_form_fails_on_unital_algebra():
    model, delta = truncated_poly_algebra(3)
    d = leibniz_sum(regular_module(model), delta, "sumD")
    rep = is_tri_derivation(
        TriDerivationCandidate("sumD", d, regular_module(model))
    )
    assert not rep.holds
    assert rep.first_slot == (0, 0, 1, 0)


def test_sum_form_witness_replay():
    # quadruple (1, 1, x, 1): multiplying the unit into slot one leaves
    # D(1,1,x) = x on the left, while the sum rule produces it twice
    model, delta = truncated_poly_algebra(3)
    mod = regular_module(model)
    d, pi = apply(leibniz_sum(mod, delta, "sumD")), apply(model.multiplication)
    inner = d(0, 0, 1)
    assert d(pi(0, 0), 0, 1) == (0, 1, 0)
    assert plus(apply(mod.right_action)(inner, 0), apply(mod.left_action)(0, inner)) == (0, 2, 0)


def test_convolution_candidate_rejected_at_origin():
    rep = is_tri_derivation(derivation_fixture("z3-conv"))
    assert not rep.holds
    assert rep.first_slot == (0, 0, 0, 0)


def test_matrix_inner_candidate_rejected():
    rep = is_tri_derivation(derivation_fixture("matrix2-inner"))
    assert not rep.holds
    assert rep.first_slot == (0, 0, 0, 3)
    assert rep.middle_slot == (0, 0, 0, 2)
    assert rep.last_slot == (0, 0, 0, 2)


def test_matrix_inner_witness_replay():
    # quadruple (E11, E22, E11, E11): E11 E22 = 0 leaves D(0, E11, E11) = 0
    # on the left, while D(E11, E11, E11) E22 = -E12 on the right
    cand = derivation_fixture("matrix2-inner")
    mod = cand.module
    d, pi = apply(cand.tri_map), apply(mod.algebra.multiplication)
    lhs = d(pi(0, 3), 0, 0)
    rhs = plus(apply(mod.right_action)(d(0, 0, 0), 3), apply(mod.left_action)(0, d(3, 0, 0)))
    assert lhs != rhs


# ---------------------------------------------------------------------------
# composites


def test_right_composite_matches_definition():
    cand = derivation_fixture("poly3-euler")
    a = basis_vector(3, 1)
    phi = apply(right_action_composite(cand, a))
    d, ract = apply(cand.tri_map), apply(cand.module.right_action)
    for c, b, e in basis_tuples((3, 3, 3)):
        assert phi(c, b, e) == ract(d(a, b, c), e)


def test_right_composite_linear_in_anchor():
    cand = derivation_fixture("poly3-euler")
    e0, e1 = basis_vector(3, 0), basis_vector(3, 1)
    mixed = vector((1, 2, 0))
    phi = right_action_composite(cand, mixed)
    phi0 = right_action_composite(cand, e0)
    phi1 = right_action_composite(cand, e1)
    combined = tuple(u + 2 * v for u, v in zip(phi0.entries, phi1.entries))
    assert phi.entries == combined


def test_dual_composite_pairing_oracle():
    cand = derivation_fixture("poly3-euler")
    xstar = basis_vector(3, 2)
    psi = apply(dual_action_composite(cand, xstar))
    d, lact = apply(cand.tri_map), apply(cand.module.left_action)
    for a, e, b, c in basis_tuples((3, 3, 3, 3)):
        assert psi(a, e, b)[c] == sum(map(mul, xstar, lact(b, d(a, e, c))))


def test_composites_vanish_on_zero_inputs():
    cand = derivation_fixture("poly3-euler")
    assert all(
        v == 0 for v in right_action_composite(cand, vector([0] * 3)).entries
    )
    assert all(
        v == 0 for v in dual_action_composite(cand, vector([0] * 3)).entries
    )
    zero_cand = derivation_fixture("zero")
    assert all(
        v == 0
        for v in right_action_composite(zero_cand, basis_vector(3, 1)).entries
    )
    assert all(
        v == 0
        for v in dual_action_composite(zero_cand, basis_vector(3, 1)).entries
    )


# ---------------------------------------------------------------------------
# extension statements about the composites


@pytest.mark.parametrize("name", ["zero", "poly3-euler"])
def test_composite_extension_checks_pass(name):
    rows = composite_extension_checks(derivation_fixture(name))
    assert all(ok for _, ok, _ in rows), [lbl for lbl, ok, _ in rows if not ok]
    labels = [lbl for lbl, _, _ in rows]
    for needle in (
        "hypothesis: right action extensions agree",
        "right composites, item 1: plain equals t-conjugated",
        "right composites, item 2: plain equals i-conjugated",
        "right composites, item 3: plain equals i-conjugated (repeat)",
        "right composites, item 4: plain equals r-conjugated",
        "dual composites, item 4: plain equals r-conjugated",
    ):
        assert needle in labels


@pytest.mark.parametrize("name", ["zero", "poly3-euler"])
def test_fourth_adjoint_round_trip(name):
    rows = fourth_adjoint_check(derivation_fixture(name))
    assert all(ok for _, ok, _ in rows), [lbl for lbl, ok, _ in rows if not ok]
    labels = [lbl for lbl, _, _ in rows]
    assert "fourth adjoint reproduces the candidate" in labels
    assert "fourth adjoint is again a derivation (first product)" in labels
    assert "fourth adjoint is again a derivation (second product)" in labels
    assert "right composites: r-conjugated equals i-conjugated" in labels
    assert "dual composites: t-conjugated equals plain" in labels


# ---------------------------------------------------------------------------
# fixture registry and shape checking


def test_fixture_registry_names():
    assert set(FIXTURE_NAMES) == {"zero", "poly3-euler", "z3-conv", "matrix2-inner"}
    for name in FIXTURE_NAMES:
        cand = derivation_fixture(name)
        assert cand.tri_map.arity == 3


def test_fixture_registry_unknown():
    with pytest.raises(InvalidAlgebra, match="zero"):
        derivation_fixture("nope")


def test_candidate_shape_mismatch():
    from arenscalc.tensor import ShapeMismatch

    model, _ = truncated_poly_algebra(3)
    bad = from_function("D", (3, 3), 3, lambda *_: 0)
    with pytest.raises(ShapeMismatch):
        TriDerivationCandidate("bad", bad, regular_module(model))


def test_matrix_inner_delta_is_commutator():
    # the inner map of the matrix fixture must be a -> [E12, a]
    d = apply(derivation_fixture("matrix2-inner").tri_map)
    model = matrix_algebra(2)
    mult, unit = apply(model.multiplication), model.unit
    # recover delta from the sum form at (a, 1, 1): D(a,e,e) = delta(a)
    for a in range(4):
        assert d(a, unit, unit) == tuple(map(sub, mult(1, a), mult(a, 1)))


# ---------------------------------------------------------------------------
# the slot identities as tensor equations, against the basis-quadruple scan
#
# The oracle's reference restates the scan the witnesses are defined by:
# every basis quadruple (a, b, c, d) in lexicographic order, the first
# failing quadruple per slot.  Inputs are candidates with
# at most one entry of D, the product or an action perturbed, including
# modules whose carrier dim differs from the algebra dim.


def _cubed_point_derivation() -> TriDerivationCandidate:
    # x^k acts on a line by its value at 0; the product of three point
    # derivations p -> p'(0) is a tri-derivation into that line
    D = from_function("D", (3, 3, 3), 1, lambda l, a, b, c: a == b == c == 1)
    module = character_module(truncated_poly_algebra(3)[0], (1, 0, 0))
    return TriDerivationCandidate("poly3-at-zero", D, module)


def _doubled_euler() -> TriDerivationCandidate:
    # poly3 acting on two copies of itself, D = (degree-weighted, 0)
    base = derivation_fixture("poly3-euler")
    D = from_function(
        "D", (3, 3, 3), 6, lambda l, a, b, c: base.tri_map.entry((l, a, b, c)) if l < 3 else 0
    )
    return TriDerivationCandidate("poly3-doubled", D, doubled_module(base.module.algebra))


CANDIDATES = {name: derivation_fixture(name) for name in FIXTURE_NAMES}
CANDIDATES["poly3-at-zero"] = _cubed_point_derivation()
CANDIDATES["poly3-doubled"] = _doubled_euler()


def test_fourth_adjoint_failure_details_are_pinned(perturb_realized):
    perturb_realized("D^{****}", "l^{***}", "r^{r***r}")
    rows = fourth_adjoint_check(CANDIDATES["poly3-at-zero"])
    assert rows[:3] == [
        (
            "fourth adjoint reproduces the candidate",
            False,
            "FAIL  D^{****} != D at index [0, 0, 0, 0]: 1 vs 0",
        ),
        (
            "extended structure (first product)",
            False,
            "left action: FAIL  l^{***} != l at index [0, 0, 0]: 2 vs 1",
        ),
        (
            "extended structure (second product)",
            False,
            "right action: FAIL  r^{r***r} != r at index [0, 0, 0]: 2 vs 1",
        ),
    ]


def test_composite_family_failure_details_are_pinned(perturb_realized):
    # the composites of all anchors are checked as one stack (named "rc" or
    # "dc") and, where that fails, anchor by anchor ("rc1", "dc2"); break both
    perturb_realized("rc^{t****s}", "rc1^{t****s}", "dc^{i****i}", "dc2^{i****i}")
    rows = composite_extension_checks(CANDIDATES["poly3-euler"])
    assert [row for row in rows if not row[1]] == [
        (
            "right composites, item 1: plain equals t-conjugated",
            False,
            "basis 1: FAIL  rc1^{****} != rc1^{t****s} at index [0, 0, 0, 0]: 0 vs 1",
        ),
        (
            "right composites, item 2: r-conjugated equals t-conjugated",
            False,
            "basis 1: FAIL  rc1^{r****r} != rc1^{t****s} at index [0, 0, 0, 0]: 0 vs 1",
        ),
        (
            "dual composites, item 1: r-conjugated equals i-conjugated",
            False,
            "basis 2: FAIL  dc2^{r****r} != dc2^{i****i} at index [0, 0, 0, 0]: 0 vs 1",
        ),
        (
            "dual composites, item 2: plain equals i-conjugated",
            False,
            "basis 2: FAIL  dc2^{****} != dc2^{i****i} at index [0, 0, 0, 0]: 0 vs 1",
        ),
        (
            "dual composites, item 3: plain equals i-conjugated (repeat)",
            False,
            "basis 2: FAIL  dc2^{****} != dc2^{i****i} at index [0, 0, 0, 0]: 0 vs 1",
        ),
    ]


@pytest.mark.parametrize("role", ["product", "left action", "right action"])
def test_fourth_adjoint_failure_names_the_structure_map(monkeypatch, role):
    # poly3-euler's product and both actions are one map named "pi"; give
    # each role its own equal copy and break the extensions of one of them
    base = derivation_fixture("poly3-euler")
    alg, mod = base.module.algebra, base.module
    structure = {
        r: dataclasses.replace(m)
        for r, m in zip(
            ("product", "left action", "right action"),
            (alg.multiplication, mod.left_action, mod.right_action),
        )
    }
    ext_alg = AlgebraModel(alg.dim, structure["product"], alg.unit, alg.basis_names)
    cand = TriDerivationCandidate(base.name, base.tri_map, BanachModuleModel(
        ext_alg, mod.carrier_dim, structure["left action"], structure["right action"]
    ))
    real = derivation_module.extensions

    def extensions(m, leads):
        exts = real(m, leads)
        if m is structure[role]:
            exts = {lead: dataclasses.replace(e, entries=(e.entries[0] + 1,) + e.entries[1:])
                    for lead, e in exts.items()}
        return exts

    monkeypatch.setattr(derivation_module, "extensions", extensions)
    rows = fourth_adjoint_check(cand)
    assert rows[1:3] == [
        (
            "extended structure (first product)",
            False,
            f"{role}: FAIL  pi^{{***}} != pi at index [0, 0, 0]: 2 vs 1",
        ),
        (
            "extended structure (second product)",
            False,
            f"{role}: FAIL  pi^{{r***r}} != pi at index [0, 0, 0]: 2 vs 1",
        ),
    ]


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_extensions_keep_every_axis_and_entry_in_place(name):
    # the fourth-adjoint harness checks D^{****} over the candidate's own
    # module once the extended structure equals it; that needs equality
    # axis for axis, not only up to the label alignment ``equal`` does
    cand = CANDIDATES[name]
    alg, mod = cand.module.algebra, cand.module
    for m, leads in [(cand.tri_map, ("",))] + [
        (m, ARENS_FLIPS) for m in (alg.multiplication, mod.left_action, mod.right_action)
    ]:
        for lead, ext in extensions(m, leads).items():
            assert (ext.shape, ext.axis_labels, ext.entries) == (m.shape, m.axis_labels, m.entries), lead


def test_fourth_adjoint_checks_the_candidates_own_structure_once(monkeypatch):
    cand = derivation_fixture("poly3-euler")
    calls = {"_structure": 0, "AlgebraModel": 0, "BanachModuleModel": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(derivation_module, "_structure",
                        counted("_structure", derivation_module._structure))
    for cls in (AlgebraModel, BanachModuleModel):
        monkeypatch.setattr(cls, "validate", counted(cls.__name__, cls.validate))
    rows = fourth_adjoint_check(cand)
    assert all(ok for _, ok, _ in rows)
    # the candidate's compositions, built once: D^{****} is D position for
    # position, so its slot rows read the candidate's own slot report
    assert calls == {"_structure": 1, "AlgebraModel": 0, "BanachModuleModel": 0}


def test_derivation_suite_extends_the_shared_product_once_per_harness(monkeypatch):
    # on A acting on A the product and both actions are one map: each of
    # the two candidates extends it once in the fourth-adjoint harness and
    # once in the composite statements' right-action hypothesis
    realized, real = Counter(), algebra_module.extensions

    def extensions(m, leads):
        realized.update(leads if m.name == "pi" else ())
        return real(m, leads)

    for module in (algebra_module, derivation_module):
        monkeypatch.setattr(module, "extensions", extensions)
    _, rows = run_derivation_suite()
    assert all(ok for _, ok, _ in rows)
    assert realized == {"": 4, "r": 4}


def test_a_fourth_adjoint_permuted_by_position_is_checked_on_its_own(monkeypatch):
    # D^{****} comes out as D with its codomain and first input swapped,
    # labels and all: equal to D under label alignment, not position for
    # position, so its slot rows must not be the candidate's
    cand = derivation_fixture("poly3-euler")
    real = tensor_module.transpose
    swapped = real(cand.tri_map, (1, 0, 2, 3))
    assert swapped.entries != cand.tri_map.entries and equal(swapped, cand.tri_map).equal

    def transpose(m, new_axes, name=None, labels=None):
        out = real(m, new_axes, name=name, labels=labels)
        return real(out, (1, 0, 2, 3), name=name) if name == "D^{****}" else out

    monkeypatch.setattr(tensor_module, "transpose", transpose)
    want = is_tri_derivation(cand._replace(tri_map=swapped))
    assert not want.holds and is_tri_derivation(cand).holds
    assert fourth_adjoint_check(cand)[:3] == [
        ("fourth adjoint reproduces the candidate", True, "PASS  D^{****} == D"),
        ("fourth adjoint is again a derivation (first product)", False, want.render()),
        ("fourth adjoint is again a derivation (second product)", False, want.render()),
    ]


def test_derivation_section_composes_each_candidate_once(monkeypatch):
    callers = Counter()

    def counting(real):
        def compose_into_slot(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):  # a comprehension: its function
                frame = frame.f_back
            callers[frame.f_code.co_name] += 1
            return real(*args, **kwargs)
        return compose_into_slot

    for module in (algebra_module, derivation_module, tensor_module):
        monkeypatch.setattr(module, "compose_into_slot", counting(module.compose_into_slot))
    _, rows = run_derivation_suite()
    assert all(ok for _, ok, _ in rows)
    # the one fixture build that composes: matrix2-inner's Leibniz sum
    fixtures = {"leibniz_sum"}
    # the right and left actions composed into D and D composed with the
    # product in each slot, once for each of the four candidates
    assert {k: n for k, n in callers.items() if k not in fixtures} == {"_structure": 20}


def test_fourth_adjoint_slot_checks_read_the_fourth_adjoint(perturb_realized):
    # poly3-euler is a tri-derivation, so failing slot checks come from D^{****}
    perturb_realized("D^{****}")
    rows = fourth_adjoint_check(CANDIDATES["poly3-euler"])
    slots = "; ".join(
        f"{slot} slot: fails at basis quadruple (0, 0, 0, 0)" for slot in ("first", "middle", "last")
    )
    assert rows[:3] == [
        (
            "fourth adjoint reproduces the candidate",
            False,
            "FAIL  D^{****} != D at index [0, 0, 0, 0]: 1 vs 0",
        ),
        ("fourth adjoint is again a derivation (first product)", False, slots),
        ("fourth adjoint is again a derivation (second product)", False, slots),
    ]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_structures_validate(name):
    # the fixture builders check nothing; each candidate's algebra and
    # module are checked here instead of in every report
    mod = derivation_fixture(name).module
    mod.algebra.validate()
    mod.validate()


@pytest.mark.parametrize("name", ["poly3-at-zero", "poly3-doubled"])
def test_candidates_off_the_algebra_dim_hold(name):
    cand = CANDIDATES[name]
    assert cand.module.carrier_dim != cand.module.algebra.dim
    cand.module.validate()
    assert is_tri_derivation(cand).holds
    assert slot_witnesses(cand) == (None, None, None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CANDIDATES)), st.data())
def test_slot_witnesses_match_basis_scan(name, data):
    cand = CANDIDATES[name]
    mod, alg = cand.module, cand.module.algebra
    D, pi, lact, ract = cand.tri_map, alg.multiplication, mod.left_action, mod.right_action
    target = data.draw(st.sampled_from(("D", "pi", "L", "R")), label="target")
    if target == "D":
        D = perturb(data, D)
    elif target == "pi":
        pi = perturb(data, pi)
    elif target == "L":
        lact = perturb(data, lact)
    else:
        ract = perturb(data, ract)
    alg = AlgebraModel(alg.dim, pi, alg.unit, alg.basis_names)
    cand = TriDerivationCandidate(
        cand.name, D, BanachModuleModel(alg, mod.carrier_dim, lact, ract)
    )
    rep = is_tri_derivation(cand)
    checks = (rep.first_slot, rep.middle_slot, rep.last_slot)
    assert checks == slot_witnesses(cand)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pinned_fixture_witnesses_match_basis_scan(name):
    rep = is_tri_derivation(CANDIDATES[name])
    got = (rep.first_slot, rep.middle_slot, rep.last_slot)
    assert got == slot_witnesses(CANDIDATES[name])


def test_sum_form_matches_its_definition():
    cand = derivation_fixture("matrix2-inner")
    pi, d = apply(cand.module.algebra.multiplication), apply(cand.tri_map)

    def delta(u):  # u -> [E12, u]
        return tuple(map(sub, pi(1, u), pi(u, 1)))

    for a, b, c in basis_tuples((4, 4, 4)):
        terms = pi(pi(delta(a), b), c), pi(pi(a, delta(b)), c), pi(pi(a, b), delta(c))
        assert d(a, b, c) == tuple(map(sum, zip(*terms)))


def _dual_composite_per_functional(cand, xstar, name):
    """The dual-action composite built for one functional on its own: D
    composed into the left action, the adjoint taken, xstar sliced away."""
    lbd = compose_into_slot(cand.module.left_action, cand.tri_map, 2)
    kbad = slice_slot(adjoint(lbd), 1, xstar)
    n = cand.module.algebra.dim
    return MultiMap(
        name, 3, (n, n, n), n, ("out*", "in1", "in2", "in3"),
        transpose(kbad, (0, 2, 3, 1)).entries,
    )


def _right_composite_per_anchor(cand, a, name):
    """The right-action composite built for one anchor on its own: D sliced
    at a, its two inputs swapped, composed into the right action."""
    dcb = transpose(slice_slot(cand.tri_map, 1, a), (0, 2, 1))
    return compose_into_slot(cand.module.right_action, dcb, 1, name=name)


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_right_family_matches_per_anchor_build(name):
    cand = CANDIDATES[name]
    build, count = _family(cand, "right"), cand.module.algebra.dim
    assert _family_rows(cand, "right", [("x", "", "")]) == [("x", True, f"{count} bases checked")]
    every = build(None, "rc")  # all basis anchors as one stack
    size = len(every.entries) // count
    for k in range(count):
        want = _right_composite_per_anchor(cand, basis_vector(count, k), f"rc{k}")
        assert build(basis_vector(count, k), f"rc{k}") == want
        assert (every.shape, every.axis_labels) == (want.shape, want.axis_labels)
        assert every.entries[k * size:(k + 1) * size] == want.entries
    a = vector([Fraction(k - 1, k + 1) for k in range(count)])
    assert right_action_composite(cand, a, name="rc") == (
        _right_composite_per_anchor(cand, a, "rc")
    )


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_dual_family_matches_per_functional_build(name):
    cand = CANDIDATES[name]
    build, count = _family(cand, "dual"), cand.module.carrier_dim
    assert _family_rows(cand, "dual", [("x", "", "")]) == [("x", True, f"{count} bases checked")]
    every = build(None, "dc")  # all basis anchors as one stack
    size = len(every.entries) // count
    for k in range(count):
        want = _dual_composite_per_functional(cand, basis_vector(count, k), f"dc{k}")
        assert build(basis_vector(count, k), f"dc{k}") == want
        assert (every.shape, every.axis_labels) == (want.shape, want.axis_labels)
        assert every.entries[k * size:(k + 1) * size] == want.entries
    xstar = vector([Fraction(k - 1, k + 1) for k in range(count)])
    assert dual_action_composite(cand, xstar, name="dc") == (
        _dual_composite_per_functional(cand, xstar, "dc")
    )


_EULER = CANDIDATES["poly3-euler"]
_WIDE_RIGHT = from_function("r", (3, 2), 3, lambda *_: 0)  # its algebra slot has dim 2, not 3

# each refusal of the public derivation calls: the call, its exception type and message
REFUSALS = {
    "candidate shape": (
        lambda: TriDerivationCandidate("bad", from_function("D", (3, 3, 2), 3, lambda *_: 0),
                                       _EULER.module),
        ShapeMismatch,
        "bad: shape (3, 3, 3, 2) does not chain through algebra dim 3 into carrier dim 3"),
    "right composite anchor": (lambda: right_action_composite(_EULER, vector((1, 0))),
                               ShapeMismatch, "fixed element dim 2 vs algebra dim 3"),
    "dual composite functional": (lambda: dual_action_composite(_EULER, vector((1, 0))),
                                  ShapeMismatch, "functional dim 2 vs carrier dim 3"),
    "sum form off the algebra": (
        lambda: leibniz_sum(CANDIDATES["poly3-at-zero"].module,
                            from_function("d", (3,), 3, lambda *_: 0), "D"),
        ShapeMismatch, "sum form needs the algebra acting on itself"),
    # tensor's refusal of identity terms whose shapes disagree
    "slot identity terms": (
        lambda: is_tri_derivation(TriDerivationCandidate(
            "D", _EULER.tri_map, _EULER.module._replace(right_action=_WIDE_RIGHT))),
        ShapeMismatch,
        "terms of one identity disagree in shape: [(3, 3, 3, 2, 3), (3, 3, 3, 3, 3)]"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_pinned(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
