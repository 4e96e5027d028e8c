"""Slot-wise derivations of tri-linear maps and their fourth adjoints.

A tri-linear map D from three copies of an algebra into a two-sided
module is a tri-derivation when multiplying any one argument by a
fourth element splits into a right-action term plus a left-action term,
in each of the three slots separately.  Each identity is checked as one
equation between four-input tensors: both sides are built from the
candidate, the product and the actions by slot composition, read with
their inputs in (a, b, c, d) order, and compared codomain block by
block.  By multilinearity this is the same as checking every basis
quadruple, and the first differing block is the first failing quadruple
in lexicographic order, which is the witness reported.

The two composite families built from a tri-derivation both fix one
datum and rearrange the rest: the right-action composite fixes the
first argument and post-multiplies, and the dual-action composite fixes
a carrier functional and pulls it back through the adjoint.  Their
extension identities are what the fourth-adjoint harness verifies, in
both directions, alongside re-running the slot checks on the fourth
adjoint once the structure's extensions are shown to be the structure.

Every check reads one private structure per candidate: D composed into
both actions, the product composed into each slot of D, and the slot
report.  The checks take the structure in place of the candidate, so a
caller running several of them (the report does) builds it once.  The
fourth adjoint reads its slot report when it has D's entries, position
for position.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from .algebra import (
    BanachModuleModel,
    InvalidAlgebra,
    cayley_fixture,
    extensions,
    group_algebra,
    matrix_algebra,
    regular_module,
    regularity_check,
    truncated_poly_algebra,
)
from .semantics import ARENS_FLIPS
from .tensor import (
    MultiMap,
    ShapeMismatch,
    _checked,
    _first_mismatch_block,
    _fractions,
    _scaled_sum,
    basis_vector,
    compose_into_slot,
    default_labels,
    equal,
    from_function,
    prepared,
    slice_slot,
    transpose,
)


class TriDerivationCandidate(namedtuple("TriDerivationCandidate", "name tri_map module")):
    """A named tri-linear map from an algebra into a module over it; its
    shape is checked when built."""

    __slots__ = ()

    def __new__(cls, name: str, tri_map: MultiMap, module: BanachModuleModel):
        n, d = module.algebra.dim, module.carrier_dim
        if tri_map.arity != 3:
            raise ShapeMismatch(f"{name}: candidate must be tri-linear")
        if tri_map.input_dims != (n, n, n) or tri_map.codomain_dim != d:
            raise ShapeMismatch(
                f"{name}: shape {tri_map.shape} does not chain "
                f"through algebra dim {n} into carrier dim {d}"
            )
        return super().__new__(cls, name, tri_map, module)


class DerivationReport(namedtuple("DerivationReport", "first_slot middle_slot last_slot")):
    """The first failing basis quadruple of each slot identity, or None."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.first_slot is None and self.middle_slot is None and self.last_slot is None

    def render(self) -> str:
        return "; ".join(
            f"{label} slot: ok" if witness is None
            else f"{label} slot: fails at basis quadruple {witness}"
            for label, witness in zip(
                ("first", "middle", "last"), (self.first_slot, self.middle_slot, self.last_slot)
            )
        )


# a candidate with what its checks read, each built once: right_action composed
# into slot 1 of D, left_action into slot 2, and the slot report
_Structure = namedtuple("_Structure", "cand right left report")


def _structure(cand: TriDerivationCandidate) -> _Structure:
    """The candidate's compositions and slot report (see ``is_tri_derivation``)."""
    D, mod = cand.tri_map, cand.module
    right = compose_into_slot(mod.right_action, D, 1)
    left = compose_into_slot(mod.left_action, D, 2)
    slots = tuple(compose_into_slot(D, mod.algebra.multiplication, k) for k in (1, 2, 3))
    witnesses = []
    for k, x in enumerate("abc"):
        before, after = "abc"[:k], "abc"[k + 1:]
        witnesses.append(_first_mismatch_block(
            "abcd",
            [(slots[k], before + x + "d" + after)],
            [(right, "abcd"), (left, x + before + "d" + after)],
        ))
    return _Structure(cand, right, left, DerivationReport(*witnesses))


def _structured(cand) -> _Structure:
    """A candidate's structure; a structure already built is its own."""
    return cand if isinstance(cand, _Structure) else _structure(cand)


def is_tri_derivation(cand: TriDerivationCandidate) -> DerivationReport:
    """Check the three slot identities as tensor equations.

    For slot k the identity reads D(.., x_k.d, ..) = D(a, b, c).d +
    x_k.D(.., d, ..) as functions of (a, b, c, d): the left side is the
    product composed into slot k of D, the right side the sum of D
    composed into the right action and into the left action, each read
    with its inputs in (a, b, c, d) order.  A witness is the first
    failing basis quadruple in lexicographic order, the first codomain
    block on which the two sides differ.
    """
    return _structured(cand).report


# ---------------------------------------------------------------------------
# composite maps


def _family(cand, side: str):
    """The ``side`` ("right" or "dual") composite of a candidate or its
    structure at any anchor, from the structure's composition: slot 1 of
    it is fixed at the anchor, the rest reordered.  A ``None`` anchor
    gives every basis anchor as one stack, slot 1 first."""
    s = _structured(cand)
    if side == "right":
        # right_action(D(a, b, c), d) reads (l; a, b, c, d); fixing a and
        # swapping b and c leaves (l; c, b, d)
        composed = s.right
        axes, labels = (0, 2, 1, 3), default_labels(3)
    else:
        # under the dot pairing the value at (a, d, b) pairs with e_k to
        # xstar . left_action(b, D(a, d, k)); the adjoint (k; l, b, a, d) moves k
        # to the codomain and the carrier axis l to slot 1, where xstar is
        # contracted away to leave (k; b, a, d)
        composed = prepared("f^{*}", 4)(s.left)
        axes, labels = (0, 2, 3, 1), ("out*", "in1", "in2", "in3")

    def build(anchor, name):
        if anchor is None:
            m = transpose(composed, (1,) + tuple(a + (a > 0) for a in axes))
            return _checked(name, m.shape[2:], m.shape[1], labels, vars(m).get("entries"),
                            m.shape[0], vars(m).get("lane"))
        return transpose(slice_slot(composed, 1, anchor), axes, name=name, labels=labels)

    return build


def right_action_composite(
    cand: TriDerivationCandidate, a: Sequence[Fraction], name: str | None = None
) -> MultiMap:
    """The map (c, b, d) -> right_action(D(a, b, c), d) for a fixed a."""
    n = cand.module.algebra.dim
    if len(a) != n:
        raise ShapeMismatch(f"fixed element dim {len(a)} vs algebra dim {n}")
    return _family(cand, "right")(a, name if name is not None else f"{cand.name}.rc")


def dual_action_composite(
    cand: TriDerivationCandidate, xstar: Sequence[Fraction], name: str | None = None
) -> MultiMap:
    """The map (a, d, b) -> D*(left_action*(xstar, b), a, d).

    Lands in the algebra dual; the codomain axis is labelled with a star
    to keep the dual level visible to later realizations.
    """
    if len(xstar) != cand.module.carrier_dim:
        raise ShapeMismatch(f"functional dim {len(xstar)} vs carrier dim {cand.module.carrier_dim}")
    return _family(cand, "dual")(xstar, name if name is not None else f"{cand.name}.dc")


# ---------------------------------------------------------------------------
# extension harnesses

Row = tuple[str, bool, str]


def tally_rows(results, ok_detail: str, labels=()) -> list[Row]:
    """Fold ``(label, ok, detail)`` results into one row per label.

    Rows come in the order of ``labels``, then of labels first seen; a
    row passes when no result for its label failed, and then carries
    ``ok_detail``, else the detail of its first failure.
    """
    failures: dict[str, str | None] = dict.fromkeys(labels)
    for label, ok, detail in results:
        if failures.setdefault(label, None) is None and not ok:
            failures[label] = detail
    return [
        (label, failure is None, ok_detail if failure is None else failure)
        for label, failure in failures.items()
    ]


def _family_rows(cand, side: str, pairs: list[tuple[str, str, str]]) -> list[Row]:
    """Check extension equalities of the ``side`` composite family over a basis.

    ``pairs`` lists (row label, lead letter, lead letter) equalities to
    verify for the composite at every basis anchor: algebra elements for
    "right", carrier functionals for "dual".  One report row per pair,
    aggregated across the basis: on one stack, then anchor by anchor, for
    the witness, for a pair that fails there.
    """
    build = _family(cand, side)
    every = build(None, side[0] + "c")
    count = every.instances
    exts = extensions(every, {lead for _, la, lb in pairs for lead in (la, lb)})

    def results():
        for label, la, lb in pairs:
            for k in range(count) if not equal(exts[la], exts[lb]).equal else ():
                one = extensions(build(basis_vector(count, k), f"{side[0]}c{k}"), (la, lb))
                rep = equal(one[la], one[lb])
                yield label, rep.equal, f"basis {k}: {rep.render()}"

    return tally_rows(results(), f"{count} bases checked", [label for label, _, _ in pairs])


def composite_extension_checks(cand: TriDerivationCandidate) -> list[Row]:
    """The four conditional extension statements about the composites.

    Each statement says: under a hypothesis on the right action or on
    the base map's own extensions, two extensions of every right-action
    composite agree; the dual-action composites obey the same pattern.
    In the exact rational model every hypothesis holds, so each row is
    an unconditional check here, with the hypotheses asserted first.
    ``cand`` may be the candidate's structure, built once for all checks.
    """
    s = _structured(cand)
    rows: list[Row] = []
    reg = regularity_check(s.cand.module.right_action)
    rows.append(("hypothesis: right action extensions agree", reg.equal, reg.render()))
    dexts = extensions(s.cand.tri_map, ("", "i", "j", "s"))
    for label, la, lb in (
        ("hypothesis: base extensions j-vs-plain", "j", ""),
        ("hypothesis: base extensions j-vs-i", "j", "i"),
        ("hypothesis: base extensions j-vs-s", "j", "s"),
    ):
        rep = equal(dexts[la], dexts[lb])
        rows.append((label, rep.equal, rep.render()))

    item_pairs = [
        ("item 1: plain equals t-conjugated", "", "t"),
        ("item 1: r-conjugated equals i-conjugated", "r", "i"),
        ("item 2: plain equals i-conjugated", "", "i"),
        ("item 2: r-conjugated equals t-conjugated", "r", "t"),
        ("item 3: plain equals i-conjugated (repeat)", "", "i"),
        ("item 4: plain equals r-conjugated", "", "r"),
    ]
    for side in ("right", "dual"):
        rows += _family_rows(
            s, side, [(f"{side} composites, {lbl}", la, lb) for lbl, la, lb in item_pairs]
        )
    return rows


def fourth_adjoint_check(cand: TriDerivationCandidate) -> list[Row]:
    """Check the fourth adjoint of the candidate against the structure; both ways.

    Forward: realize the fourth adjoint of the candidate and the triple
    extensions of the product and both actions, and confirm each
    reproduces its original exactly (they must, since every map here is
    a finite tensor).  Once a canonical product's extensions do, the
    extended structure is the candidate's own, axis for axis, so the
    slot checks run on the fourth adjoint over the candidate's module,
    once for both products, or are the candidate's own if it has D's
    entries position for position.  Backward: verify the two condition
    families on the composites that characterize when the fourth adjoint
    is again a derivation.  ``cand`` may be the candidate's structure.
    """
    s = _structured(cand)
    D, mod = s.cand.tri_map, s.cand.module
    rows: list[Row] = []
    dxx = extensions(D, ("",))[""]
    rep = equal(dxx, D)
    rows.append(("fourth adjoint reproduces the candidate", rep.equal, rep.render()))

    roles = ("product", "left action", "right action")  # one name for all three on A acting on A
    structure = (mod.algebra.multiplication, mod.left_action, mod.right_action)
    # both extensions of each distinct map once; on a regular module all three are one object
    exts = {k: extensions(m, ARENS_FLIPS) for k, m in {id(m): m for m in structure}.items()}
    ext_rep = None
    for tag, lead in zip(("first", "second"), ARENS_FLIPS):
        reps = zip(roles, (equal(exts[id(m)][lead], m) for m in structure))
        changed = [f"{role}: {r.render()}" for role, r in reps if not r.equal]
        if changed:
            rows.append((f"extended structure ({tag} product)", False, changed[0]))
            continue
        if ext_rep is None:
            same = dxx.shape == D.shape and dxx.entries == D.entries
            ext_rep = s.report if same else _structure(s.cand._replace(tri_map=dxx)).report
        rows.append(
            (
                f"fourth adjoint is again a derivation ({tag} product)",
                ext_rep.holds,
                ext_rep.render(),
            )
        )

    family_pairs = {
        "right": [("r-conjugated equals i-conjugated", "r", "i"),
                  ("i-conjugated equals s-conjugated", "i", "s")],
        "dual": [("j-conjugated equals t-conjugated", "j", "t"),
                 ("t-conjugated equals plain", "t", "")],
    }
    for side, pairs in family_pairs.items():
        labelled = [(f"{side} composites: {lbl}", la, lb) for lbl, la, lb in pairs]
        rows += _family_rows(s, side, labelled)
    return rows


# ---------------------------------------------------------------------------
# fixtures


def leibniz_sum(module: BanachModuleModel, delta: MultiMap, name: str) -> MultiMap:
    """The three-term sum D(a,b,c) = d(a)bc + ad(b)c + abd(c) on X = A.

    On a unital algebra this is never a tri-derivation unless it
    vanishes on unit-padded triples: plugging the unit into the
    multiplied slot doubles one side.  Kept as a named builder because
    its rejection witnesses make good negative fixtures.
    """
    alg = module.algebra
    if module.carrier_dim != alg.dim:
        raise ShapeMismatch("sum form needs the algebra acting on itself")
    n = alg.dim
    triple = compose_into_slot(alg.multiplication, alg.multiplication, 1)  # (ab)c
    terms = [compose_into_slot(triple, delta, k).lane for k in (1, 2, 3)]
    den = lcm(*(d for _, d in terms))
    lane = (_scaled_sum(terms, den), den)
    if len(lane[0]) != n**4:  # a delta of the wrong shape: refused with MultiMap's message
        return MultiMap(name, 3, (n, n, n), n, default_labels(3), tuple(_fractions(*lane)))
    return _checked(name, (n, n, n), n, default_labels(3), None, lane=lane)


def _poly3_module() -> BanachModuleModel:  # polynomials modulo x^3 acting on themselves
    return regular_module(truncated_poly_algebra(3)[0])


def _poly3_euler(mod: BanachModuleModel) -> TriDerivationCandidate:
    # degree-weighted: monomial triple (a, b, c) lands on abc.x^(a+b+c-1);
    # each slot map is then a multiple of x^k d/dx with k >= 1
    n = 3

    def fn(l, a, b, c):
        return a * b * c if a + b + c - 1 == l else 0

    D = from_function("D", (n, n, n), n, fn)
    return TriDerivationCandidate("poly3-euler", D, mod)


def _zero(mod: BanachModuleModel) -> TriDerivationCandidate:
    D = from_function("D", (3, 3, 3), 3, lambda *_: 0)
    return TriDerivationCandidate("zero", D, mod)


def _z3_conv() -> TriDerivationCandidate:
    model, triple = group_algebra(cayley_fixture("z3"))
    mod = regular_module(model)
    return TriDerivationCandidate("z3-conv", triple, mod)


def _matrix2_inner() -> TriDerivationCandidate:
    model = matrix_algebra(2)
    mod = regular_module(model)
    pi = model.multiplication
    m = basis_vector(4, 1)  # E12
    # the inner derivation a -> E12.a - a.E12
    (u, d), (v, e) = slice_slot(pi, 1, m).lane, slice_slot(pi, 2, m).lane
    lane = ([a * e - b * d for a, b in zip(u, v)], d * e)
    inner = _checked("ad", (4,), 4, default_labels(1), None, lane=lane)
    D = leibniz_sum(mod, inner, "D")
    return TriDerivationCandidate("matrix2-inner", D, mod)


_FIXTURE_BUILDERS = {  # zero and poly3-euler take the module they share
    "zero": lambda: _zero(_poly3_module()),
    "poly3-euler": lambda: _poly3_euler(_poly3_module()),
    "z3-conv": _z3_conv,
    "matrix2-inner": _matrix2_inner,
}
FIXTURE_NAMES = tuple(_FIXTURE_BUILDERS)


def derivation_fixture(name: str) -> TriDerivationCandidate:
    try:
        build = _FIXTURE_BUILDERS[name]
    except KeyError:
        raise InvalidAlgebra(
            f"unknown derivation fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return build()
