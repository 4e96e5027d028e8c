"""Dense exact-rational realizations of multilinear maps.

A map f : V1 x ... x Vn -> C between finite-dimensional rational spaces is
stored as a dense tensor with the codomain axis first, entries in row-major
order.  The dual pairing is the dot product in the chosen bases and biduals
are identified with the original spaces, so dual levels only matter mod 2.
Under that pairing the adjoint is a pure axis rotation,

    adjoint(F)[k; l, i1, ..., i_{n-1}] = F[l; i1, ..., i_{n-1}, k],

and a flip permutes the input axes.  Every axis carries a label naming the
base axis it came from (``out``, ``in1``, ...), with a trailing ``*`` when
the axis currently sits at odd dual level; comparisons align axes by label
so that two realizations are compared slot-order blind.

``_permute`` reorders axes by one ``itemgetter`` over the flat offsets of
one instance, cached per (shape, axis order) and applied per instance.  A
word is realized as one permutation: ``realizer`` folds it once, through
``semantics.axis_semantics``, into an axis order and dual levels, applied to
a base map by one ``transpose``.  ``prepared(word, arity)`` is one bounded
table of realizers for the package's own words, each folded once per
process; ``realize`` folds on every call, for words from outside, never
kept.  ``adjoint`` and ``flip`` are the step-by-step test oracle.

Every map has an integer lane ``(ints, den)``, its entries over one common
denominator in lowest terms, which the contractions read.  A draw, a kernel
result (``compose_into_slot``, ``compose_codomain``, ``slice_slot``) of integer
operands, a group table, and a transpose of such a map, which moves the lane,
hold their lane alone, at den 1, and build their ``Fraction`` entries on first
read; any other map holds its entries and reads its lane off them once.
``equal`` compares two den-1 lanes as ints.  A map the package builds from
data it has checked skips validation.

A stack is n maps of one shape laid end to end, with a leading instance
axis; a single map is a stack of one.  ``transpose``, so every realizer,
moves the axes of all instances by that one gather, and ``equal`` compares
two stacks in one tuple comparison, mostly of shared objects, and scans for
the first mismatch, indexed within its instance, only if that fails.
``_contract`` scales a column of every instance at once, so two stacks of
one count compose, and a stack slices at one vector per instance
(``_slice``), in one pass.  ``_draw`` draws a stack from one seed per
instance, each the ``random_map`` of its seed.  What reads one map
(``evaluate``, ``slice_slot``, ``entry``, ``to_dict``, and the law check
``_first_mismatch_block``) refuses a stack.

All entries are ``fractions.Fraction`` and all checks are exact; a float
read from a map file, or given as a coordinate, is its exact binary value.
"""

from __future__ import annotations

import os
import random
import re
from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, count, islice, product, starmap
from math import lcm, prod
from operator import add, itemgetter, mul, ne
from stat import S_ISREG

from . import semantics
from .expr import ExprAst, flip_perm, parse
from .semantics import default_labels


class DimensionMismatch(Exception):
    """Vectors or maps with incompatible dimensions."""


class ShapeMismatch(Exception):
    """Two maps that cannot be compared (arity, labels, or dims differ)."""


def vector(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def basis_vector(dim: int, k: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if i == k else 0) for i in range(dim))


def toggle_dual(label: str) -> str:
    return label[:-1] if label.endswith("*") else label + "*"


class _FromLane:
    """A map's entries read off a lane it holds alone, kept from then on."""

    def __get__(self, m, owner=None):
        if m is None:  # so the dataclass field has no default
            raise AttributeError("entries")
        entries = vars(m)["entries"] = tuple(_fractions(*m.lane))
        return entries


# the one dataclass: maps are validated in __post_init__, rebuilt with
# dataclasses.replace by callers outside the package (the package's own
# builders go through _checked), and hold a cached lane, which a tuple cannot
@dataclass(frozen=True)
class MultiMap:
    name: str
    arity: int
    input_dims: tuple[int, ...]
    codomain_dim: int
    axis_labels: tuple[str, ...]
    entries: tuple[Fraction, ...] = _FromLane()  # held, or built from a lane held alone
    instances: int = 1  # past 1, a stack: that many maps of this shape, end to end

    def __post_init__(self):
        if self.arity < 1 or len(self.input_dims) != self.arity:
            raise ShapeMismatch(f"{self.name}: arity {self.arity} vs input dims {self.input_dims}")
        shape = self.shape
        if min(shape) < 1:
            raise ShapeMismatch(f"{self.name}: dims must be positive: {shape}")
        if len(self.axis_labels) != self.arity + 1:
            raise ShapeMismatch(f"{self.name}: need {self.arity + 1} axis labels")
        if len(set(self.axis_labels)) != len(self.axis_labels):
            raise ShapeMismatch(f"{self.name}: axis labels must be unique")
        if len(self.entries) != self.instances * prod(shape):
            raise ShapeMismatch(f"{self.name}: {len(self.entries)} entries for shape {shape}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.codomain_dim,) + self.input_dims

    @cached_property
    def lane(self) -> tuple[Sequence[int], int]:
        """Ints n and one denominator D with entries[i] == n[i] / D, read once."""
        return _integers(self.entries)

    def entry(self, index: tuple[int, ...]) -> Fraction:
        shape = _single(self).shape
        if len(index) != len(shape):
            raise DimensionMismatch(f"index {index} has {len(index)} positions for shape {shape}")
        flat = 0
        for size, i in zip(shape, index):
            if not 0 <= i < size:
                raise DimensionMismatch(f"index {index} out of range for {self.shape}")
            flat = flat * size + i
        return self.entries[flat]


def _checked(name, input_dims, codomain_dim, axis_labels, entries, instances=1, lane=None):
    """A map built from checked maps, not validated again, holding ``lane``
    if given; with ``entries`` None, a lane at den 1 is all it holds, and
    any other lane gives its entries at once and is not kept."""
    if entries is None and lane[1] != 1:
        entries, lane = tuple(_fractions(*lane)), None
    m = object.__new__(MultiMap)
    fields = m.__dict__
    fields.update(name=name, arity=len(input_dims), input_dims=input_dims,
                  codomain_dim=codomain_dim, axis_labels=axis_labels, instances=instances)
    if entries is not None:
        fields["entries"] = entries
    if lane is not None:
        fields["lane"] = lane
    return m


def _single(m: MultiMap) -> MultiMap:
    if m.instances != 1:
        raise ShapeMismatch(f"{m.name}: a stack of {m.instances} maps, where one map is needed")
    return m


def from_function(name, input_dims, codomain_dim, fn) -> MultiMap:
    """Build a map entrywise; fn takes (cod_index, *input_indices)."""
    input_dims = tuple(input_dims)
    labels = default_labels(len(input_dims))
    shape = (codomain_dim,) + input_dims
    values = starmap(fn, product(*map(range, shape)))  # an int or bool: its one shared Fraction
    entries = tuple(_integer(v) if type(v) in (int, bool) else Fraction(v) for v in values)
    return MultiMap(name, len(input_dims), input_dims, codomain_dim, labels, entries)


def stack(maps: Sequence[MultiMap]) -> MultiMap:
    """Maps of one shape and labels as one stack, named after the first."""
    if not maps:
        raise ShapeMismatch("a stack needs at least one map")
    if len({(m.shape, m.axis_labels) for m in maps}) != 1:
        raise ShapeMismatch("the maps of a stack differ in shape or labels")
    f, entries = maps[0], tuple(chain.from_iterable(m.entries for m in maps))
    return _checked(f.name, f.input_dims, f.codomain_dim, f.axis_labels, entries,
                    sum(m.instances for m in maps))


@lru_cache(maxsize=512)
def _plan(shape: tuple[int, ...], new_axes: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """A gather reading one row-major tensor of ``shape`` in ``new_axes`` order, checked here."""
    if sorted(new_axes) != list(range(len(shape))):
        raise ShapeMismatch(f"bad axis order {new_axes} for arity {len(shape) - 1}")
    strides = [1] * len(shape)
    for k in range(len(shape) - 1, 0, -1):
        strides[k - 1] = strides[k] * shape[k]
    offs = [0]
    for a in new_axes:
        offs = [o + i * strides[a] for o in offs for i in range(shape[a])]
    if len(offs) == 1:  # itemgetter of one index returns the bare item
        return lambda entries: (entries[0],)
    return itemgetter(*offs)


del _plan.__wrapped__  # the bench tracer reads any __wrapped__ as a wrapper left installed


def _permute(entries, shape, new_axes, n: int = 1) -> tuple:
    """Row-major entries with the axes reordered, in each of ``n`` instances;
    new axis b is old axis new_axes[b].  One cached gather per instance."""
    new_axes = tuple(new_axes)
    if new_axes == tuple(range(len(shape))):
        return tuple(entries)
    gather = _plan(tuple(shape), new_axes)
    if n == 1:
        return gather(entries)
    size = len(entries) // n
    instances = (entries[k:k + size] for k in range(0, len(entries), size))
    return tuple(chain.from_iterable(map(gather, instances)))


_integer = lru_cache(maxsize=1024)(Fraction)  # one shared object per small integer
del _integer.__wrapped__  # as for _plan


def _integers(vals) -> tuple[list[int], int]:
    """Integers n and one common denominator D with vals[i] == n[i] / D,
    each value read at its exact ratio (a float at its binary value)."""
    ratios = [v.as_integer_ratio() for v in vals]
    den = lcm(*{d for _, d in ratios})
    if den == 1:
        return [n for n, _ in ratios], 1
    return [n * (den // d) for n, d in ratios], den


def _scaled_sum(lanes, den: int) -> list[int]:
    """Lanes ``(ints, d)`` scaled to ``den`` (a multiple of each d) and summed, in a new list."""
    out = None
    for t, d in lanes:
        t = t if d == den else [v * (den // d) for v in t]
        out = list(t) if out is None else list(map(add, out, t))
    return out


def _fractions(ints, den: int) -> list[Fraction]:
    """The exact values ints[i] / den."""
    return list(map(_integer, ints)) if den == 1 else [Fraction(n, den) for n in ints]


def _transposed(values, width: int):
    """Row-major ``values`` with rows ``width`` long, read column by column."""
    if width in (1, len(values)):
        return values
    return list(chain.from_iterable(zip(*zip(*[iter(values)] * width))))


def _contract_last(ints, x) -> list[int]:
    """Contract the fastest axis of row-major integers with integer coordinates x."""
    d = len(x)
    out = None
    for i, c in enumerate(x):
        if c:
            col = ints[i::d] if c == 1 else [v * c for v in ints[i::d]]
            out = col if out is None else list(map(add, out, col))
    return [0] * (len(ints) // d) if out is None else out


def _contract(ints, rows, mid: int, n: int = 1) -> list[int]:
    """n instances end to end, each integers in rows ``mid`` long, against its own
    rows of coefficients: instance k of the result holds (b, r), its row b dotted
    with its row r.  One instance takes a coefficient row at a time; a stack
    scales a column of every instance at once.  Zeros and ones are skipped."""
    out = []
    if n == 1:
        for b in range(0, len(rows), mid):
            out += _contract_last(ints, rows[b:b + mid])
        return out
    step, size = len(rows) // n, len(ints) // (n * mid)
    cols = [_transposed(ints[i::mid], size) for i in range(mid)]
    coefs = list(zip(*zip(*[iter(rows)] * step)))  # the n coefficients of each (b, i)
    for b in range(0, step, mid):
        block = None
        for col, cs in zip(cols, coefs[b:b + mid]):
            if any(cs):
                col = col if cs.count(1) == n else list(map(mul, col, cs * size))
                block = col if block is None else list(map(add, block, col))
        out += [0] * (n * size) if block is None else block
    return _transposed(out, n)


def _slot_last(m: MultiMap, axis: int) -> tuple:
    """The lane of ``m`` with ``axis`` (0 = codomain) moved to the fastest
    position in every instance, ready for ``_contract``."""
    ints, den = m.lane
    rest = tuple(a for a in range(m.arity + 1) if a != axis)
    return _permute(ints, m.shape, rest + (axis,), m.instances), den


def transpose(m: MultiMap, new_axes, name=None, labels=None) -> MultiMap:
    """Reorder all axes (codomain included); new axis b draws old axis
    new_axes[b].  Axis 0 of the result is its codomain.  The result's
    labels default to the moved labels of ``m``.  A map that holds its
    lane alone gives a map that holds the moved lane alone; any other
    gives its moved entries and no lane, which a first read builds."""
    shape, entries = m.shape, m.__dict__.get("entries")
    moved = _permute(m.lane[0] if entries is None else entries, shape, new_axes, m.instances)
    if labels is None:
        labels = tuple(map(m.axis_labels.__getitem__, new_axes))
    elif len(set(labels)) != len(shape):
        raise ShapeMismatch(f"need {len(shape)} unique axis labels, got {labels}")
    new_shape = tuple(map(shape.__getitem__, new_axes))
    return _checked(name if name is not None else m.name, new_shape[1:], new_shape[0], labels,
                    entries and moved, m.instances, None if entries else (moved, 1))


def adjoint(m: MultiMap) -> MultiMap:
    """Adjoint under the dot pairing: the last input axis becomes the
    codomain and the old codomain becomes the first input; both pick up a
    dual star."""
    n = m.arity
    labels = m.axis_labels
    labels = (toggle_dual(labels[n]), toggle_dual(labels[0])) + labels[1:n]
    return transpose(m, (n,) + tuple(range(n)), name=m.name + "*", labels=labels)


def flip(m: MultiMap, letter: str) -> MultiMap:
    perm = flip_perm(letter, m.arity)
    return transpose(m, (0,) + tuple(1 + k for k in perm), name=m.name + letter)


def evaluate(m: MultiMap, args) -> tuple[Fraction, ...]:
    """Apply the map to one vector per input slot: contract the last slot
    first and work back to slot 1."""
    args = list(args)
    vals, den = _single(m).lane
    if tuple(map(len, args)) != m.input_dims:
        raise DimensionMismatch(f"{m.name}: argument dims {list(map(len, args))} vs {m.input_dims}")
    for v in reversed(args):
        xs, e = _integers(v)
        vals, den = _contract_last(vals, xs), den * e
    return tuple(_fractions(vals, den))


def realizer(expr: ExprAst, arity: int) -> Callable[[MultiMap], MultiMap]:
    """Fold an expression's operations once, for base maps of ``arity``.

    ``semantics.axis_semantics`` folds the word into an axis order and the
    dual level of every position; the returned function applies that fold
    to a base map by a single ``transpose``, naming the result after the
    base map.
    """
    asg = semantics.axis_semantics(expr, arity)
    index = {a: k for k, a in enumerate(default_labels(arity))}
    axes = tuple(map(index.__getitem__, (asg.codomain_axis,) + asg.slot_axes))
    levels = (asg.codomain_level,) + asg.slot_levels
    suffix = ExprAst("", expr.ops).render()

    def apply(base: MultiMap) -> MultiMap:
        if base.arity != arity:
            raise ShapeMismatch(f"{base.name}: arity {base.arity}, word folded at arity {arity}")
        own = base.axis_labels
        labels = tuple(toggle_dual(own[a]) if lv % 2 else own[a] for a, lv in zip(axes, levels))
        return transpose(base, axes, name=base.name + suffix, labels=labels)

    return apply


@lru_cache(maxsize=64)
def prepared(word: str, arity: int) -> Callable[[MultiMap], MultiMap]:
    """The realizer of one of the package's own words, folded on first use."""
    return realizer(parse(word), arity)


del prepared.__wrapped__  # as for _plan


def realize(expr: ExprAst, base: MultiMap) -> MultiMap:
    """Apply an expression's operations to a concrete base map, folding anew."""
    return realizer(expr, base.arity)(base)


class IdentityReport(
    namedtuple("IdentityReport", "left_name right_name equal first_mismatch", defaults=(None,))
):
    """Whether two named maps are equal, else ``(index, left, right)`` where
    they first differ."""

    __slots__ = ()

    def render(self) -> str:
        if self.equal:
            return f"PASS  {self.left_name} == {self.right_name}"
        idx, lv, rv = self.first_mismatch
        return (
            f"FAIL  {self.left_name} != {self.right_name} "
            f"at index {list(idx)}: {lv} vs {rv}"
        )


def _shown(labels: tuple) -> str:
    """Labels as text, with the labels past the eighth counted, not listed."""
    more = len(labels) - 8
    return str(labels) if more <= 0 else f"{str(labels[:8])[:-1]}, ... {more} more)"


def equal(left: MultiMap, right: MultiMap) -> IdentityReport:
    """Entrywise comparison after aligning the right map's axes by label."""
    if left.arity != right.arity:
        raise ShapeMismatch(f"arity {left.arity} vs {right.arity}")
    if left.instances != right.instances:
        raise ShapeMismatch(f"stacks of {left.instances} vs {right.instances} maps")
    index = {label: k for k, label in enumerate(right.axis_labels)}
    if index.keys() != set(left.axis_labels):
        raise ShapeMismatch(
            f"cannot align labels {_shown(right.axis_labels)} to {_shown(left.axis_labels)}"
        )
    axes, want, have = tuple(map(index.__getitem__, left.axis_labels)), left.shape, right.shape
    shape = tuple(map(have.__getitem__, axes))
    if shape != want:  # past eight axes, only the first that differs
        k = next(compress(count(), map(ne, want, shape)))
        dims = f"{want} vs {shape}" if len(shape) <= 8 else (
            f"{want[k]} vs {shape[k]} on axis {left.axis_labels[k]}")
        raise ShapeMismatch(f"dims {dims} after label alignment")
    # two lanes held at den 1 compare as ints, printed as their Fractions print
    values, dl = left.__dict__.get("lane", (0, 0))
    theirs, dr = right.__dict__.get("lane", (0, 0))
    values, theirs = (tuple(values), theirs) if dl == dr == 1 else (left.entries, right.entries)
    aligned = _permute(theirs, have, axes, right.instances)
    if values == aligned:
        return IdentityReport(left.name, right.name, True)
    pos = next(compress(count(), map(ne, values, aligned)))
    idx = next(islice(product(*map(range, want)), pos % prod(want), None))
    return IdentityReport(left.name, right.name, False, (idx, str(values[pos]), str(aligned[pos])))


def _first_mismatch_block(inputs: str, lhs, rhs) -> tuple[int, ...] | None:
    """Where two sums of maps, read as functions of common inputs, differ.

    ``inputs`` names the common inputs, one letter each, and every side is
    a sequence of ``(map, names)`` terms whose ``names`` letter the map's
    input slots.  Each term is permuted once to the common input order
    with the codomain axis last and scaled to ints over one common
    denominator, and the terms of a side are added, so every input index
    owns one contiguous codomain block.  Returns the input index (in
    ``inputs`` order) of the first block on which the two sides differ,
    which is the first failing tuple of a lexicographic basis scan, or
    None when the sides agree.
    """
    shapes, sides = set(), ([], [])
    for side, terms in zip(sides, (lhs, rhs)):
        for m, names in terms:
            axes = tuple(1 + names.index(v) for v in inputs) + (0,)
            shapes.add(tuple(m.shape[a] for a in axes))
            ints, den = _single(m).lane
            side.append((_permute(ints, m.shape, axes), den))
    if len(shapes) != 1:
        raise ShapeMismatch(f"terms of one identity disagree in shape: {sorted(shapes)}")
    (shape,) = shapes
    den = lcm(*(d for side in sides for _, d in side))
    left, right = (_scaled_sum(side, den) for side in sides)
    if left == right:
        return None
    pos = next(compress(count(), map(ne, left, right)))
    return next(islice(product(*map(range, shape[:-1])), pos // shape[-1], None))


# randint(-9, 9) draws the top five bits of a 32-bit word until they are below 19: a
# top byte from 152 up is rejected, and a kept top byte b draws (b >> 3) - 9, a signed byte
_REJECTED = bytes(range(152, 256))
_DRAWN = bytes(((b >> 3) - 9) % 256 for b in range(256))


def random_map(arity, input_dims, codomain_dim, seed, name="f") -> MultiMap:
    """Deterministic random integer-entried map for a given seed; entries
    are ``rng.randint(-9, 9)`` draws in row-major order, read from the top
    bytes of one ``getrandbits`` call.  Built unchecked, unless ``MultiMap`` refuses the shape."""
    return _draw((seed,), arity, input_dims, codomain_dim, name)


def _draw(seeds, arity, input_dims, codomain_dim, name="f") -> MultiMap:
    """One stack of maps of one shape, instance k the ``random_map`` of ``seeds[k]``."""
    dims = tuple(input_dims)
    if arity < 1 or len(dims) != arity or min(dims + (codomain_dim,)) < 1:
        return MultiMap(name, arity, dims, codomain_dim, default_labels(len(dims)), ())
    size, kept = codomain_dim * prod(dims), []
    for seed in seeds:
        rng, draws = random.Random(seed), b""
        while len(draws) < size:
            words = 2 * (size - len(draws))
            top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            draws += top.translate(_DRAWN, _REJECTED)
        kept.append(draws[:size])
    ints = memoryview(b"".join(kept)).cast("b").tolist()
    return _checked(name, dims, codomain_dim, default_labels(arity), None, len(kept), (ints, 1))


def compose_into_slot(outer: MultiMap, inner: MultiMap, slot: int, name=None) -> MultiMap:
    """Feed ``inner``'s value into input ``slot`` (1-based) of ``outer``.

    The result is a fresh base map of arity outer.arity - 1 + inner.arity
    with default axis labels; inner's inputs take over the slot position.
    Two stacks of n maps compose instance by instance into a stack of n.
    """
    if not 1 <= slot <= outer.arity:
        raise ShapeMismatch(f"slot {slot} out of range for arity {outer.arity}")
    if outer.input_dims[slot - 1] != inner.codomain_dim:
        raise DimensionMismatch(
            f"slot {slot} of {outer.name} has dim {outer.input_dims[slot - 1]}, "
            f"but {inner.name} lands in dim {inner.codomain_dim}"
        )
    if (n := outer.instances) != inner.instances:
        raise ShapeMismatch(f"stacks of {n} vs {inner.instances} maps")
    # outer with the slot axis last, inner with its codomain last; each
    # instance's block (b; l, pre, post) is inner's row b against outer's rows
    (moved, den), (rows, e) = _slot_last(outer, slot), _slot_last(inner, 0)
    blocks = _contract(moved, rows, inner.codomain_dim, n)
    # per instance, axes (b, l, pre..., post...) -> (l, pre..., b, post...), b flattened
    pre, post = outer.input_dims[: slot - 1], outer.input_dims[slot:]
    shape = (len(rows) // (n * inner.codomain_dim), outer.codomain_dim) + pre + post
    order = tuple(range(1, slot + 1)) + (0,) + tuple(range(slot + 1, len(shape)))
    dims = pre + inner.input_dims + post
    return _checked(
        name if name is not None else f"{outer.name}.{inner.name}.s{slot}",
        dims, outer.codomain_dim, default_labels(len(dims)), None, n,
        lane=(_permute(blocks, shape, order, n), den * e),
    )


def compose_codomain(post: MultiMap, m: MultiMap) -> MultiMap:
    """Apply a linear map to the output of ``m``; keeps ``m``'s labels."""
    if post.arity != 1:
        raise ShapeMismatch(f"{post.name}: codomain composition needs a linear map")
    c = compose_into_slot(post, m, 1)
    return _checked(f"{post.name}.{m.name}", c.input_dims, c.codomain_dim, m.axis_labels,
                    vars(c).get("entries"), c.instances, vars(c).get("lane"))


def slice_slot(m: MultiMap, slot: int, vec: Sequence[Fraction]) -> MultiMap:
    """Contract input ``slot`` (1-based) with a fixed vector."""
    if not 1 <= slot <= m.arity:
        raise ShapeMismatch(f"slot {slot} out of range for arity {m.arity}")
    if m.arity == 1:
        raise ShapeMismatch("cannot slice the only input away")
    if len(vec) != m.input_dims[slot - 1]:
        raise DimensionMismatch(
            f"slot {slot} of {m.name} has dim {m.input_dims[slot - 1]}, vector {len(vec)}"
        )
    return _slice(_single(m), slot, vec)


def _slice(m: MultiMap, slot: int, vecs: Sequence[Fraction]) -> MultiMap:
    """Contract input ``slot`` of each instance of ``m`` with its own
    vector, ``vecs`` holding one per instance, end to end."""
    (ints, den), (xs, e) = _slot_last(m, slot), _integers(vecs)
    lane = _contract(ints, xs, m.input_dims[slot - 1], m.instances)
    return _checked(
        f"{m.name}|s{slot}", m.input_dims[: slot - 1] + m.input_dims[slot:], m.codomain_dim,
        m.axis_labels[:slot] + m.axis_labels[slot + 1:], None, m.instances, lane=(lane, den * e),
    )


# ---------------------------------------------------------------------------
# serialization


def to_dict(m: MultiMap) -> dict:
    return {
        "name": _single(m).name,
        "arity": m.arity,
        "input_dims": list(m.input_dims),
        "codomain_dim": m.codomain_dim,
        "axis_labels": list(m.axis_labels),
        "entries": [str(e) for e in m.entries],
    }


# the form to_dict writes; Fraction alone would also take exponents such as
# "1e999999999", whose expansion takes time that grows with the exponent
_ENTRY_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json(v, kind: type, what: str):
    """``v`` if it has the JSON type that ``to_dict`` writes for ``what``."""
    if type(v) is kind:  # so no bool for an int, and no string for a list
        return v
    raise ShapeMismatch(f"malformed map data: {what} is {type(v).__name__}, not {kind.__name__}")


def _json_list(v, kind: type, what: str) -> tuple:
    return tuple(_json(x, kind, f"an item of {what}") for x in _json(v, list, what))


def _entry_from_json(v) -> Fraction:
    if type(v) in (int, float) or (isinstance(v, str) and _ENTRY_TEXT.fullmatch(v)):
        return Fraction(v)
    raise ShapeMismatch(f"bad entry {v!r} in map file")


def from_dict(d: dict) -> MultiMap:
    try:
        return MultiMap(
            name=_json(d["name"], str, "name"),
            arity=_json(d["arity"], int, "arity"),
            input_dims=_json_list(d["input_dims"], int, "input_dims"),
            codomain_dim=_json(d["codomain_dim"], int, "codomain_dim"),
            axis_labels=_json_list(d["axis_labels"], str, "axis_labels"),
            entries=tuple(map(_entry_from_json, _json(d["entries"], list, "entries"))),
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ShapeMismatch(f"malformed map data: {exc}") from exc


def save_map(m: MultiMap, path) -> None:
    import json  # imported here: most runs read and write no map file

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(m), fh, indent=1)
        fh.write("\n")


MAP_FILE_BYTES = 1 << 20  # the most load_map reads of a map file, which must be a regular file


def load_map(path) -> MultiMap:
    import json  # as in save_map

    if not S_ISREG(os.stat(path).st_mode):
        raise OSError(f"map file {path} is not a regular file")
    with open(path, "rb") as fh:
        data = fh.read(MAP_FILE_BYTES + 1)
    if len(data) > MAP_FILE_BYTES:
        raise OSError(f"map file {path} is larger than {MAP_FILE_BYTES} bytes")
    return from_dict(json.loads(data.decode("utf-8")))
