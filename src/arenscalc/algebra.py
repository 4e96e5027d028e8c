"""Finite-dimensional test beds for the extension calculus.

Group algebras from Cayley tables, truncated polynomial algebras with
their Euler derivation, matrix algebras, and two-sided module
structures.  On top of these sit the bilinear checks: the two canonical
extensions of a product, the regularity comparison between them, the
slice construction that turns a tri-linear map into a bilinear one, and
the nested-map constraint check.

The structure laws (associativity, the unit law and the three module
laws) are checked as tensor equations: each side is one map built by
slot composition, and the first codomain block on which the sides
differ names the first failing basis tuple of a lexicographic scan,
which is what the error message reports.  The builders here return
models they do not check; ``validate`` is for models a caller builds.

Everything here lives in the exact rational model, where dual spaces are
identified with the spaces themselves through the dot pairing.  In that
model the two canonical extensions of any bilinear map coincide; the
checks below verify this collapse rather than assume it, which makes
them sharp regression tests for the axis bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, permutations, product

from .semantics import ARENS_FLIPS, default_labels, extension_expr
from .tensor import (
    DimensionMismatch,
    IdentityReport,
    MultiMap,
    _first_mismatch_block,
    basis_vector,
    compose_into_slot,
    equal,
    from_function,
    prepared,
    slice_slot,
    vector,
)
from .tensor import _checked, _contract_last, _fractions, _integers, _single, _slice, _slot_last


class InvalidCayleyTable(Exception):
    pass


class InvalidAlgebra(Exception):
    pass


class ConstraintViolated(Exception):
    """A sample point where a claimed pointwise constraint fails."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# ---------------------------------------------------------------------------
# finite groups


class CayleyTable(namedtuple("CayleyTable", "order table identity")):
    """A finite group: its order, its multiplication table as a tuple of
    rows, and the index of its identity; checked when built."""

    __slots__ = ()

    def __new__(cls, order: int, table: tuple[tuple[int, ...], ...], identity: int):
        n, e = order, identity
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidCayleyTable(f"table must be {n}x{n}")
        if not 0 <= e < n:
            raise InvalidCayleyTable(f"identity index {e} out of range")
        full = set(range(n))
        for k, row in enumerate(table):
            if set(row) != full:
                raise InvalidCayleyTable(f"row {k} is not a permutation")
        for k in range(n):
            if set(table[i][k] for i in range(n)) != full:
                raise InvalidCayleyTable(f"column {k} is not a permutation")
        for k in range(n):
            if table[e][k] != k or table[k][e] != k:
                raise InvalidCayleyTable(f"element {e} is not an identity")
        for i, j, k in product(range(n), repeat=3):
            if table[table[i][j]][k] != table[i][table[j][k]]:
                raise InvalidCayleyTable(f"associativity fails at ({i}, {j}, {k})")
        return super().__new__(cls, order, table, identity)

    def product(self, i: int, j: int) -> int:
        return self.table[i][j]


def _cyclic(n: int) -> CayleyTable:
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return CayleyTable(n, rows, 0)


def _sym3() -> CayleyTable:
    # permutations of {0,1,2} in lexicographic order; (p.q)(x) = p(q(x))
    perms = list(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    rows = tuple(
        tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms) for p in perms
    )
    return CayleyTable(6, rows, 0)


_GROUP_BUILDERS = {
    "z2": lambda: _cyclic(2),
    "z3": lambda: _cyclic(3),
    "z4": lambda: _cyclic(4),
    "s3": _sym3,
}
GROUP_FIXTURES = tuple(_GROUP_BUILDERS)


def cayley_fixture(name: str) -> CayleyTable:
    try:
        build = _GROUP_BUILDERS[name]
    except KeyError:
        raise InvalidCayleyTable(f"unknown group fixture {name!r}") from None
    return build()


# ---------------------------------------------------------------------------
# algebras


class AlgebraModel(namedtuple("AlgebraModel", "dim multiplication unit basis_names")):
    """An algebra of dimension ``dim``: its product as a bilinear ``MultiMap``,
    its unit vector or None, and one name per basis vector."""

    __slots__ = ()

    def validate(self) -> None:
        pi = self.multiplication
        if pi.arity != 2 or pi.input_dims != (self.dim, self.dim) or pi.codomain_dim != self.dim:
            raise InvalidAlgebra(f"product shape {pi.shape} does not match dim {self.dim}")
        if len(self.basis_names) != self.dim:
            raise InvalidAlgebra("one basis name per dimension")
        bad = _first_mismatch_block(
            "ijk",
            [(compose_into_slot(pi, pi, 1), "ijk")],
            [(compose_into_slot(pi, pi, 2), "ijk")],
        )
        if bad is not None:
            raise InvalidAlgebra(
                "associativity fails at ({}, {}, {})".format(
                    *(self.basis_names[i] for i in bad)
                )
            )
        if self.unit is not None:
            if len(self.unit) != self.dim:
                raise InvalidAlgebra("unit has wrong dimension")
            # u.e_k = e_k and e_k.u = e_k: both slices of pi at u are the identity
            ident = [(from_function("id", (self.dim,), self.dim, lambda l, k: l == k), "k")]
            fails = [
                w
                for s in (1, 2)
                if (w := _first_mismatch_block("k", [(slice_slot(pi, s, self.unit), "k")], ident))
            ]
            if fails:
                raise InvalidAlgebra(f"unit law fails at basis {self.basis_names[min(fails)[0]]}")


def group_algebra(t: CayleyTable) -> tuple[AlgebraModel, MultiMap]:
    """Group algebra of a finite group plus its triple-convolution map.

    The product sends basis deltas to the delta of the group product; the
    triple map convolves three arguments at once.
    """
    n, rows = t.order, t.table
    # pi[ij; i, j] = conv3[(ij)k; i, j, k] = 1, read off the table, not composed from pi
    prod2, prod3 = [0] * n**3, [0] * n**4
    for i, j in product(range(n), repeat=2):
        prod2[(rows[i][j] * n + i) * n + j] = 1
        for k, l in enumerate(rows[rows[i][j]]):
            prod3[((l * n + i) * n + j) * n + k] = 1
    pi = _checked("pi", (n, n), n, default_labels(2), None, lane=(prod2, 1))
    triple = _checked("conv3", (n, n, n), n, default_labels(3), None, lane=(prod3, 1))
    model = AlgebraModel(
        n, pi, basis_vector(n, t.identity), tuple(f"g{k}" for k in range(n))
    )
    return model, triple


def truncated_poly_algebra(n: int) -> tuple[AlgebraModel, MultiMap]:
    """Polynomials modulo x^n, plus the degree-weighting derivation.

    The derivation sends x^k to k.x^k.
    """
    if n < 2:
        raise InvalidAlgebra("need degree bound >= 2")
    pi = from_function(
        "pi", (n, n), n, lambda l, a, b: 1 if a + b == l else 0
    )
    names = ("1", "x") + tuple(f"x^{k}" for k in range(2, n))
    model = AlgebraModel(n, pi, basis_vector(n, 0), names)
    delta = from_function(
        "euler", (n,), n, lambda l, k: k if l == k else 0
    )
    return model, delta


def matrix_algebra(k: int) -> AlgebraModel:
    """k-by-k matrices over the rationals on the elementary-matrix basis."""
    if k < 1:
        raise InvalidAlgebra("need k >= 1")
    dim = k * k

    def fn(l, u, v):
        p1, q1 = divmod(u, k)
        p2, q2 = divmod(v, k)
        return 1 if q1 == p2 and l == p1 * k + q2 else 0

    pi = from_function("pi", (dim, dim), dim, fn)
    unit = vector(tuple(1 if divmod(m, k)[0] == divmod(m, k)[1] else 0 for m in range(dim)))
    names = tuple(f"E{p + 1}{q + 1}" for p in range(k) for q in range(k))
    return AlgebraModel(dim, pi, unit, names)


# ---------------------------------------------------------------------------
# modules


class BanachModuleModel(
    namedtuple("BanachModuleModel", "algebra carrier_dim left_action right_action")
):
    """An algebra acting on a carrier space from both sides, each action a
    bilinear ``MultiMap``."""

    __slots__ = ()

    def validate(self) -> None:
        n, d = self.algebra.dim, self.carrier_dim
        if self.left_action.input_dims != (n, d) or self.left_action.codomain_dim != d:
            raise InvalidAlgebra(f"left action shape {self.left_action.shape}")
        if self.right_action.input_dims != (d, n) or self.right_action.codomain_dim != d:
            raise InvalidAlgebra(f"right action shape {self.right_action.shape}")
        pi = self.algebra.multiplication
        lact, ract = self.left_action, self.right_action
        # each law as two maps of (i, j, m): algebra basis i, j, carrier basis m
        laws = (
            ("left module law fails at ({i}, {j}, {m})",
             (compose_into_slot(lact, pi, 1), "ijm"), (compose_into_slot(lact, lact, 2), "ijm")),
            ("right module law fails at ({m}, {i}, {j})",
             (compose_into_slot(ract, pi, 2), "mij"), (compose_into_slot(ract, ract, 1), "mij")),
            ("action compatibility fails at ({i}, {m}, {j})",
             (compose_into_slot(lact, ract, 2), "imj"), (compose_into_slot(ract, lact, 1), "imj")),
        )
        # the earliest failing triple of the (i, j, m) scan wins, then law order
        fails = [
            (w, k)
            for k, (_, lhs, rhs) in enumerate(laws)
            if (w := _first_mismatch_block("ijm", [lhs], [rhs])) is not None
        ]
        if fails:
            (i, j, m), k = min(fails)
            raise InvalidAlgebra(laws[k][0].format(i=i, j=j, m=m))


def regular_module(model: AlgebraModel) -> BanachModuleModel:
    """The algebra acting on itself by multiplication from both sides.

    ``model`` must be a valid algebra; nothing here checks it.  For a
    model the caller built, ``model.validate()`` checks it first.
    """
    return BanachModuleModel(model, model.dim, model.multiplication, model.multiplication)


# ---------------------------------------------------------------------------
# bilinear extension checks

BRIDGE_ROWS = ("slice bridge identity", "sliced map extension comparison",
               "cycled-vs-reversed extension remark")  # the rows of a slice bridge check

def extensions(m: MultiMap, leads) -> dict[str, MultiMap]:
    """The canonical extensions of ``m`` at its own arity, keyed by leading flip."""
    n = m.arity
    return {lead: prepared(extension_expr(lead, "f", n).render(), n)(m) for lead in leads}


def regularity_check(m: MultiMap) -> IdentityReport:
    """Compare the two canonical extensions of a bilinear map, its Arens
    products f^{***} and f^{r***r}, entrywise."""
    if m.arity != 2:
        raise DimensionMismatch(f"{m.name}: need a bilinear map, got arity {m.arity}")
    return equal(*extensions(m, ARENS_FLIPS).values())


def slice_bridge_check(
    f: MultiMap, wstar: Sequence[Fraction]
) -> tuple[MultiMap, tuple[tuple[str, bool, str], ...]]:
    """Slice a tri-linear map down to a bilinear one and check the bridge.

    The sliced map fixes a codomain functional in the once-adjointed
    cycled map.  Its double extension must match the corresponding slice
    of the six-fold adjoint, and the sliced map must pass the two-sided
    extension comparison.  Returns the sliced map and the report rows.  A
    stack of n maps takes n functionals, end to end in ``wstar``.
    """
    if f.arity != 3:
        raise DimensionMismatch(f"{f.name}: need a tri-linear map")
    if len(wstar) != f.instances * f.codomain_dim:
        n = f"{f.instances} x " if f.instances > 1 else ""
        raise DimensionMismatch(f"functional dim {len(wstar)} vs codomain dim {n}{f.codomain_dim}")
    m = _slice(prepared("f^{s*}", 3)(f), 1, wstar)
    lhs = _slice(prepared("f^{s******}", 3)(f), 2, wstar)
    reps = (equal(lhs, prepared("f^{****}", 2)(m)), regularity_check(m),
            equal(*extensions(f, ("s", "r")).values()))
    return m, tuple((label, rep.equal, rep.render()) for label, rep in zip(BRIDGE_ROWS, reps))


GRID_COORDS = (-1, 0, 1, 2)  # sorted, so a sorted grid is in the full grid's order


def sample_grid(dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """Deterministic sample vectors with small integer coordinates.

    Nonlinear constraints need more than basis vectors; degree-two
    discrepancies surface at coordinates beyond {0, 1}.  Past dim 4, the points
    with at most two nonzero coordinates: enough for any polynomial of degree 2.
    """
    if dim <= 4:  # the full grid, at most 256 points
        return tuple(map(vector, product(GRID_COORDS, repeat=dim)))
    zero, pairs = (0,) * dim, tuple(product(GRID_COORDS, repeat=2))
    pts = {zero[:i] + (a,) + zero[i + 1:j] + (b,) + zero[j + 1:]
           for i, j in combinations(range(dim), 2) for a, b in pairs}
    return tuple(map(vector, sorted(pts)))


def nested_bilinear_check(
    f: MultiMap, inner: MultiMap, candidate: MultiMap
) -> tuple[tuple[str, bool, str], ...]:
    """Validate a bilinear map claimed to equal f(x, y, inner(x, y)).

    The claim is nonlinear in each argument, so it cannot be synthesized
    or checked on basis vectors alone; it is sampled on the grid instead.
    Raises ConstraintViolated at the first failing sample point.  The
    accompanying rows assert the two extension identities of f that the
    construction relies on, plus the extension comparison for the
    candidate itself.
    """
    if f.arity != 3 or inner.arity != 2 or candidate.arity != 2:
        raise DimensionMismatch("need arities 3, 2, 2")
    if inner.input_dims != f.input_dims[:2] or inner.codomain_dim != f.input_dims[2]:
        raise DimensionMismatch(
            f"inner map {inner.shape} does not chain into {f.shape}"
        )
    if candidate.input_dims != f.input_dims[:2] or candidate.codomain_dim != f.codomain_dim:
        raise DimensionMismatch(
            f"candidate {candidate.shape} does not match {f.shape}"
        )
    # lanes with slot 1 last; each grid vector scaled once, each map sliced at x once
    lanes = [_slot_last(_single(m), 1) for m in (f, inner, candidate)]
    grid_y = [(y, *_integers(y)) for y in sample_grid(f.input_dims[1])]
    for x in sample_grid(f.input_dims[0]):
        xs, e = _integers(x)
        (fx, df), (inner_x, di), (cand_x, dc) = ((_contract_last(v, xs), d * e) for v, d in lanes)
        for y, ys, ey in grid_y:
            z, dz = _contract_last(inner_x, ys), di * ey
            want, dw = _contract_last(_contract_last(fx, z), ys), df * dz * ey
            got, dg = _contract_last(cand_x, ys), dc * ey
            if [v * dg for v in want] != [v * dw for v in got]:
                got, want = _fractions(got, dg), _fractions(want, dw)
                raise ConstraintViolated(
                    f"candidate disagrees at x={tuple(map(str, x))}, "
                    f"y={tuple(map(str, y))}: "
                    f"{tuple(map(str, got))} vs {tuple(map(str, want))}",
                    point=(x, y),
                )
    hyp1 = equal(prepared("f^{t***r}", 3)(f), prepared("f^{r***t}", 3)(f))
    hyp2 = equal(prepared("f^{****t**s}", 3)(f), prepared("f^{t**s****}", 3)(f))
    reg = regularity_check(candidate)
    return (
        ("mixed-adjoint hypothesis", hyp1.equal, hyp1.render()),
        ("interchange hypothesis", hyp2.equal, hyp2.render()),
        ("candidate extension comparison", reg.equal, reg.render()),
    )
