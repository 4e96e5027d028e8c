"""The tests' per-index references, each written once, with the draws and
module fixtures that the test files share.

Each reference restates a package function by its definition, one index at
a time, reading maps through ``MultiMap.entry``: none calls a kernel it
checks or a private name of the package (``test_oracle.py`` holds it to
that).  Two step-by-step paths stay in use: ``fold`` applies
``tensor.adjoint`` and ``tensor.flip`` one operation at a time, and
``nested_scan`` calls ``tensor.evaluate``, which ``apply`` checks, on grids
of up to about 200 x 200 points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import prod
from operator import add

from hypothesis import strategies as st

from arenscalc.algebra import BanachModuleModel, sample_grid
from arenscalc.expr import compose_flips, flip_perm
from arenscalc.tensor import IdentityReport, MultiMap, ShapeMismatch, adjoint, basis_vector
from arenscalc.tensor import evaluate, flip, from_function


def basis_tuples(dims):
    """Every index of ``dims``, in lexicographic order."""
    return product(*(range(d) for d in dims))


def apply(m):
    """``m`` as a function of one argument per input slot, an int k
    standing for the k-th basis vector: the sum, over input indices, of the
    column of entries there times one coordinate per slot, zero coordinates
    skipped.  Each column is read once, with ``entry``."""
    columns = {idx: tuple(m.entry((l,) + idx) for l in range(m.codomain_dim))
               for idx in basis_tuples(m.input_dims)}

    def value(*args):
        support = [[(a, 1)] if type(a) is int else [(i, c) for i, c in enumerate(a) if c]
                   for a in args]
        total = (Fraction(0),) * m.codomain_dim
        for n, terms in enumerate(product(*support)):
            idx, coeff = tuple(i for i, _ in terms), prod(c for _, c in terms)
            column = columns[idx] if coeff == 1 else tuple(e * coeff for e in columns[idx])
            total = column if n == 0 else tuple(map(add, total, column))
        return total

    return value


def _tabulate(dims, column):
    """Row-major entries of a map with input ``dims`` whose value at each
    input index is ``column(*index)``."""
    return tuple(chain.from_iterable(zip(*(column(*idx) for idx in basis_tuples(dims)))))


def sliced(m, slot, v):
    """``slice_slot``'s entries: ``m`` at ``v`` in the slot and at a basis
    vector in every other slot."""
    f, k = apply(m), slot - 1
    return _tabulate(m.input_dims[:k] + m.input_dims[slot:], lambda *idx: f(*idx[:k], v, *idx[k:]))


def composed(outer, inner, slot):
    """``compose_into_slot``'s entries: ``outer`` at ``inner``'s value in
    the slot and at a basis vector in every other slot."""
    f, g, k, n = apply(outer), apply(inner), slot - 1, inner.arity
    return _tabulate(outer.input_dims[:k] + inner.input_dims + outer.input_dims[slot:],
                     lambda *idx: f(*idx[:k], g(*idx[k:k + n]), *idx[k + n:]))


def equal_scan(left, right):
    """``equal`` restated: each entry of ``left`` against the entry of
    ``right`` whose axes carry the same labels, in row-major order."""
    if left.arity != right.arity:
        raise ShapeMismatch(f"arity {left.arity} vs {right.arity}")
    if set(right.axis_labels) != set(left.axis_labels):
        raise ShapeMismatch(f"cannot align labels {right.axis_labels} to {left.axis_labels}")
    where = [left.axis_labels.index(label) for label in right.axis_labels]
    aligned = tuple(right.shape[where.index(k)] for k in range(len(where)))
    if aligned != left.shape:
        raise ShapeMismatch(f"dims {left.shape} vs {aligned} after label alignment")
    for idx in basis_tuples(left.shape):
        a, b = left.entry(idx), right.entry(tuple(idx[k] for k in where))
        if a != b:
            return IdentityReport(left.name, right.name, False, (idx, str(a), str(b)))
    return IdentityReport(left.name, right.name, True)


def fold(word, base):
    """``base`` under the word's operations, one ``adjoint`` or ``flip`` at a time."""
    for op in word:
        base = adjoint(base) if op == "*" else flip(base, op)
    return base


def first_failure(dims, *identities):
    """The first basis tuple of ``dims``, in lexicographic order, at which
    one of ``identities`` fails, and the position of the first to fail
    there; None if none does.  An identity gives its two sides at a tuple."""
    for idx in basis_tuples(dims):
        for k, identity in enumerate(identities):
            lhs, rhs = identity(*idx)
            if lhs != rhs:
                return idx, k
    return None


def plus(u, v):
    """The coordinate-wise sum of two vectors."""
    return tuple(map(add, u, v))


def algebra_error(model):
    """``AlgebraModel.validate``'s message, or None."""
    pi, names, n, unit = apply(model.multiplication), model.basis_names, model.dim, model.unit
    failed = first_failure((n, n, n), lambda i, j, k: (pi(pi(i, j), k), pi(i, pi(j, k))))
    if failed:
        return "associativity fails at ({}, {}, {})".format(*(names[i] for i in failed[0]))
    failed = first_failure((n,), lambda k: (pi(unit, k), basis_vector(n, k)),
                           lambda k: (pi(k, unit), basis_vector(n, k)))
    return failed and f"unit law fails at basis {names[failed[0][0]]}"


MODULE_LAWS = (
    "left module law fails at ({0}, {1}, {2})",
    "right module law fails at ({2}, {0}, {1})",
    "action compatibility fails at ({0}, {2}, {1})",
)


def module_error(mod):
    """``BanachModuleModel.validate``'s message, or None."""
    n = mod.algebra.dim
    pi, lact, ract = map(apply, (mod.algebra.multiplication, mod.left_action, mod.right_action))
    failed = first_failure(
        (n, n, mod.carrier_dim),
        lambda i, j, m: (lact(pi(i, j), m), lact(i, lact(j, m))),
        lambda i, j, m: (ract(m, pi(i, j)), ract(ract(m, i), j)),
        lambda i, j, m: (lact(i, ract(m, j)), ract(lact(i, m), j)),
    )
    return failed and MODULE_LAWS[failed[1]].format(*failed[0])


def product_rule_error(pi, delta):
    """Where ``delta`` first breaks delta(ab) = delta(a)b + a delta(b), or None."""
    n, pi, delta = delta.codomain_dim, apply(pi), apply(delta)
    failed = first_failure((n, n), lambda a, b: (
        delta(pi(a, b)), plus(pi(delta(a), b), pi(a, delta(b)))))
    return failed and "product rule fails at (x^{}, x^{})".format(*failed[0])


def slot_witnesses(cand):
    """Per slot of D, the first basis quadruple (a, b, c, d) at which
    D(.., x d, ..) = D(a, b, c) d + x D(.., d, ..) fails, x in that slot."""
    mod = cand.module
    D, pi = apply(cand.tri_map), apply(mod.algebra.multiplication)
    lact, ract = apply(mod.left_action), apply(mod.right_action)

    def identity(slot):
        def sides(*quad):
            abc, d = quad[:3], quad[3]
            x, pre, post = abc[slot], abc[:slot], abc[slot + 1:]
            return D(*pre, pi(x, d), *post), plus(ract(D(*abc), d), lact(x, D(*pre, d, *post)))
        return sides

    n = mod.algebra.dim
    return tuple((first_failure((n,) * 4, identity(slot)) or (None,))[0] for slot in range(3))


def nested_scan(f, inner, cand):
    """The nested check's scan: three ``evaluate`` calls per grid point;
    the first failing point and its message, or None."""
    for x in sample_grid(f.input_dims[0]):
        for y in sample_grid(f.input_dims[1]):
            got, want = evaluate(cand, [x, y]), evaluate(f, [x, y, evaluate(inner, [x, y])])
            if got != want:
                return (x, y), (
                    f"candidate disagrees at x={tuple(map(str, x))}, y={tuple(map(str, y))}: "
                    f"{tuple(map(str, got))} vs {tuple(map(str, want))}"
                )
    return None


AXES = ("in1", "in2", "in3")


def limit_order_by_states(ops):
    """``limit_order`` restated as a state machine over the word: leading
    flips, then four adjoints in a row, then trailing flips."""
    lead, adjoints, state = (0, 1, 2), 0, "lead"
    for op in ops:
        if op == "*":
            if state == "trail":
                return None
            state = "adj"
            adjoints += 1
        else:
            perm = flip_perm(op, 3)
            if state == "lead":
                lead = compose_flips(lead, perm)
            else:
                state = "trail"
    return tuple(AXES[k] for k in lead) if adjoints == 4 else None


def character_module(model, chi):
    """The algebra acting on a line through a character chi (carrier dim 1)."""
    n = model.dim
    lact = from_function("l", (n, 1), 1, lambda l, a, x: chi[a])
    ract = from_function("r", (1, n), 1, lambda l, x, a: chi[a])
    return BanachModuleModel(model, 1, lact, ract)


def doubled_module(model):
    """The algebra acting on two copies of itself (carrier dim 2n)."""
    n, pi = model.dim, model.multiplication

    def act(l, a, x, left):
        if l // n != x // n:
            return 0
        return pi.entry((l % n, a, x % n) if left else (l % n, x % n, a))

    lact = from_function("l", (n, 2 * n), 2 * n, lambda l, a, x: act(l, a, x, True))
    ract = from_function("r", (2 * n, n), 2 * n, lambda l, x, a: act(l, a, x, False))
    return BanachModuleModel(model, 2 * n, lact, ract)


# per entry kind: numerators from lo to hi over denominators from 1 to top
ENTRY_KINDS = {"mixed": (-4, 4, 3), "integer": (-9, 9, 1), "zero": (0, 0, 1)}
KINDS = st.sampled_from(tuple(ENTRY_KINDS))
VECTOR_KINDS = st.sampled_from(("mixed", "zero", "one-hot"))
ONE_HOT = st.sampled_from((1, -1, Fraction(-3, 2)))


def _ints(data, size, lo, hi):
    """``size`` ints from ``lo`` to ``hi``, at most 256 of them, drawn as
    one string of bytes, each read modulo the range's size, smallest
    magnitude first; nothing is drawn for a range of one."""
    values = sorted(range(lo, hi + 1), key=abs)
    if len(values) == 1:
        return values * size
    return [values[b % len(values)] for b in data.draw(st.binary(min_size=size, max_size=size))]


def _entries(data, size, kind):
    """``size`` values of one kind, from one draw of numerators and one of denominators."""
    lo, hi, top = ENTRY_KINDS[kind]
    return tuple(map(Fraction, _ints(data, size, lo, hi), _ints(data, size, 1, top)))


def draw_fractions(data, size, bound, top):
    """``size`` fractions from -bound to bound over denominators from 1 to
    ``top``: one draw of numerators over the range of denominator ``top``,
    each scaled to its own denominator, and one draw of denominators."""
    nums, dens = _ints(data, size, -bound * top, bound * top), _ints(data, size, 1, top)
    return tuple(Fraction(n * d // top, d) for n, d in zip(nums, dens))


def draw_map(data, arity, codomain_dim=None, shape=None):
    """A map of ``arity`` with dims from 1 to 3, or of the given ``shape``,
    its entries all of one drawn kind."""
    dims = _ints(data, arity + 1, 1, 3) if shape is None else list(shape)
    if codomain_dim is not None:
        dims[0] = codomain_dim
    kind = data.draw(KINDS, label="entry kind")
    values = iter(_entries(data, prod(dims), kind))
    return from_function("f", dims[1:], dims[0], lambda *_: next(values))


def draw_vector(data, dim):
    """Mixed-denominator coordinates, the zero vector, or a (scaled) one-hot vector."""
    kind = data.draw(VECTOR_KINDS, label="vector kind")
    if kind == "mixed":
        return _entries(data, dim, "mixed")
    k = data.draw(st.integers(0, dim - 1))
    c = 0 if kind == "zero" else data.draw(ONE_HOT)
    return tuple(Fraction(c if i == k else 0) for i in range(dim))


DELTAS = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


def perturbed_entries(data, entries) -> tuple:
    """``entries`` with the drawn position (-1: none) shifted by a drawn delta."""
    pos = data.draw(st.integers(-1, len(entries) - 1), label="perturbed position")
    if pos < 0:
        return tuple(entries)
    out = list(entries)
    out[pos] += data.draw(DELTAS, label="delta")
    return tuple(out)


def perturb(data, m: MultiMap) -> MultiMap:
    """``m`` with its entries perturbed, built through the checking constructor."""
    entries = perturbed_entries(data, m.entries)
    return MultiMap(m.name, m.arity, m.input_dims, m.codomain_dim, m.axis_labels, entries)
