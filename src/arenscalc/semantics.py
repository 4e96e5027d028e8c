"""Which base axis each slot of an expression draws from, and in what order
iterated weak* limits are taken.

Every expression over a base map of arity n shuffles the same n + 1 axes
around: the input axes ``in1 .. in<n>`` and the codomain axis ``out``.  An
adjoint rotates the codomain axis into slot 1 and the last slot out to the
codomain (both picking up a dual level); a flip permutes the slots.  The
*axis assignment* records where each axis ended up and at what dual level.
``axis_semantics`` folds a word into it at any arity; ``tensor.realize``
reads that fold.  Extension words are stated at every arity too; a limit
order is read off the fold at the base arity, and the condition table
stays at arity 3.

The shape  flip p, four adjoints, flip q  is special: it extends the base map
to the biduals, and the value is the iterated weak* limit

    lim over slot 1 of f^p   lim over slot 2   lim over slot 3

of the base map along bounded nets, outermost first.  Read in base-axis
names, that order is just p itself; the trailing flip only renames slots.
Two such extensions with the same limit order are equal outright; with
different limit orders they are equal exactly when the corresponding limit
interchange is permitted.  Close-to-regularity of f is the interchange
f^{t****s} = f^{s****t}; conjugating that pair by a flip p gives the pair
with leading flips p.t and p.s, whose interchange is close-to-regularity of
f^p.  The table of named conditions is built that way, one entry per flip.
Everything else the symbolic layer refuses to decide.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .expr import (
    ADJOINT,
    ExprAst,
    FLIP_LETTERS,
    FLIP_PERMS,
    base_signature,
    compose_flips,
    flip_perm,
    parse,
    signature_of,
)


@lru_cache(maxsize=16)
def default_labels(arity: int) -> tuple[str, ...]:
    """Base axis names: the codomain ``out``, then ``in1`` .. ``in<arity>``."""
    return ("out",) + tuple(f"in{k}" for k in range(1, arity + 1))


del default_labels.__wrapped__  # the bench tracer reads a __wrapped__ as a wrapper left installed


Perm = tuple[int, ...]
LimitOrder = tuple[str, ...]


class AxisAssignment(
    namedtuple("AxisAssignment", "slot_axes slot_levels codomain_axis codomain_level")
):
    """Base axis and dual level for every slot and for the codomain."""

    __slots__ = ()

    def level_map(self) -> dict[str, int]:
        levels = dict(zip(self.slot_axes, self.slot_levels))
        levels[self.codomain_axis] = self.codomain_level
        return levels


def axis_semantics(expr: ExprAst, base_arity: int = 3) -> AxisAssignment:
    cod, *slots = ((axis, 0) for axis in default_labels(base_arity))
    for op in expr.ops:
        if op == ADJOINT:
            moved_in = (cod[0], cod[1] + 1)
            moved_out = (slots[-1][0], slots[-1][1] + 1)
            slots = [moved_in] + slots[:-1]
            cod = moved_out
        else:
            perm = flip_perm(op, len(slots))
            slots = [slots[k] for k in perm]
    return AxisAssignment(
        slot_axes=tuple(axis for axis, _ in slots),
        slot_levels=tuple(level for _, level in slots),
        codomain_axis=cod[0],
        codomain_level=cod[1],
    )


def limit_order(expr: ExprAst, base_arity: int = 3) -> LimitOrder | None:
    """Iterated limit order (outermost first) of a canonical extension.

    Canonical means the operations are  flips, four adjoints, flips.  The
    order is the base axes that the leading flips put in slots 1, 2, ...,
    read off ``axis_semantics`` at ``base_arity``, so it names each of the
    map's input axes once; trailing flips only rename slots and do not
    affect the order.  Returns None for every other shape.
    """
    if "".join(expr.ops).strip(FLIP_LETTERS) != ADJOINT * 4:
        return None
    lead = ExprAst(expr.base, expr.ops[: expr.ops.index(ADJOINT)])
    return axis_semantics(lead, base_arity).slot_axes


# the leading flips of the canonical extensions ("" = no flip): the six
# at arity 3, and the two Arens products of a bilinear map
EXTENSION_FLIPS = ("i", "j", "r", "", "t", "s")
ARENS_FLIPS = ("", "r")


def extension_expr(lead: str, base: str = "f", arity: int = 3) -> ExprAst:
    """The canonical extension with leading flip ``lead``: the flip, ``arity + 1``
    adjoints, then the inverse flip, so the domain comes back in base order.
    At arity 2 these are the Arens products f^{***} and f^{r***r}."""
    adjoints = (ADJOINT,) * (arity + 1)
    if lead == "":
        return ExprAst(base, adjoints)
    inv = next(q for q in FLIP_LETTERS if compose_flips(FLIP_PERMS[lead], FLIP_PERMS[q]) == (0, 1, 2))
    return ExprAst(base, (lead,) + adjoints + (inv,))


def natural_extensions(base: str = "f") -> list[tuple[ExprAst, LimitOrder]]:
    """The six bidual extensions with their limit orders."""
    out = []
    for lead in EXTENSION_FLIPS:
        expr = extension_expr(lead, base)
        order = limit_order(expr)
        assert order is not None
        out.append((expr, order))
    return out


def _normalized_ops(expr: ExprAst, arity: int) -> tuple:
    """Ops with adjacent flips composed at ``arity`` and identity flips dropped."""
    identity = tuple(range(arity))
    out: list = []
    pending: Perm | None = None
    for op in expr.ops:
        if op == ADJOINT:
            if pending is not None and pending != identity:
                out.append(pending)
            pending = None
            out.append(ADJOINT)
        else:
            perm = flip_perm(op, arity)
            pending = perm if pending is None else compose_flips(pending, perm)
    if pending is not None and pending != identity:
        out.append(pending)
    return tuple(out)


# close-to-regularity of f^p, keyed by the unordered pair of limit orders of
# the defining pair f^{t****s}, f^{s****t} conjugated by p ("" = identity):
# the folds of the leading flips p t and p s
_CTR_TABLE: dict[frozenset, str] = {
    frozenset(axis_semantics(ExprAst("f", (*p, q))).slot_axes for q in "ts"): p
    for p in EXTENSION_FLIPS
}


def condition_name(order_a: LimitOrder, order_b: LimitOrder, base: str = "f") -> str:
    letter = _CTR_TABLE.get(frozenset({order_a, order_b}))
    if letter is None:
        lo, hi = sorted((order_a, order_b))
        return f"limit-interchange(({','.join(lo)}),({','.join(hi)}))"
    if letter == "":
        return f"close-to-regular({base})"
    return f"close-to-regular({base}^{letter})"


UNCOND_EQUAL = "UNCOND-EQUAL"
EQUAL_IFF = "EQUAL-IFF"
DISTINCT = "DISTINCT"
NOT_COMPARABLE = "NOT-COMPARABLE"


class Verdict(namedtuple("Verdict", "kind condition witness")):
    """A verdict kind, the condition of an EQUAL-IFF verdict, and a witness
    dict; a verdict built without a witness gets a fresh empty one."""

    __slots__ = ()

    def __new__(cls, kind, condition=None, witness=None):
        return super().__new__(cls, kind, condition, {} if witness is None else witness)

    def render(self) -> str:
        if self.kind == EQUAL_IFF:
            return f"{EQUAL_IFF} {self.condition}"
        return self.kind


def classify(left: ExprAst, right: ExprAst, base_arity: int = 3) -> Verdict:
    """Decide symbolically how two expressions over one base map relate.

    Comparisons are slot-order blind: maps are matched up by which base axis
    each slot draws from, so a trailing flip never separates two
    expressions.  With dual levels collapsed mod 2, two expressions live on
    the same spaces exactly when the fold leaves the same base axis as their
    codomain, so that alone separates DISTINCT pairs; expressions whose
    uncollapsed levels disagree are refused rather than conflated.
    """
    sig_left = signature_of(left, base_signature(base_arity))
    sig_right = signature_of(right, base_signature(base_arity))
    if left.base != right.base:
        return Verdict(
            NOT_COMPARABLE,
            witness={"reason": f"different base maps {left.base!r} and {right.base!r}"},
        )
    asg_left = axis_semantics(left, base_arity)
    asg_right = axis_semantics(right, base_arity)
    if asg_left.codomain_axis != asg_right.codomain_axis:
        return Verdict(
            DISTINCT,
            witness={
                "left_signature": sig_left.collapsed().render(),
                "right_signature": sig_right.collapsed().render(),
            },
        )
    if _normalized_ops(left, base_arity) == _normalized_ops(right, base_arity):
        return Verdict(UNCOND_EQUAL, witness={"reason": "identical normal forms"})
    levels_left = asg_left.level_map()
    levels_right = asg_right.level_map()
    if levels_left != levels_right:
        return Verdict(
            NOT_COMPARABLE,
            witness={
                "reason": "dual levels disagree before collapsing",
                "left_levels": levels_left,
                "right_levels": levels_right,
            },
        )
    if ADJOINT not in left.ops and ADJOINT not in right.ops:
        return Verdict(UNCOND_EQUAL, witness={"reason": "flips only; slots align by axis"})
    order_left = limit_order(left, base_arity)
    order_right = limit_order(right, base_arity)
    if order_left is not None and order_right is not None:
        if order_left == order_right:
            return Verdict(
                UNCOND_EQUAL,
                witness={"limit_order": list(order_left)},
            )
        return Verdict(
            EQUAL_IFF,
            condition=condition_name(order_left, order_right, left.base),
            witness={
                "left_order": list(order_left),
                "right_order": list(order_right),
            },
        )
    return Verdict(
        NOT_COMPARABLE,
        witness={"reason": "no limit order on at least one side"},
    )


def classify_text(left: str, right: str, base_arity: int = 3) -> Verdict:
    return classify(parse(left), parse(right), base_arity)


# ---------------------------------------------------------------------------
# flip-conjugation correspondences

# conjugating close-to-regularity by a flip p turns the defining pair of
# extensions of f^p into a pair of extensions of f itself
CONJUGATION_ITEMS = (
    ("r", ("i", "j")),
    ("i", ("j", "r")),
    ("j", ("i", "r")),
    ("t", ("s", "")),
    ("s", ("t", "")),
)


def flip_conjugation_checks(base: str = "f") -> tuple[tuple[str, bool, str], ...]:
    """Check that the defining pair for close-to-regularity of each flipped
    base map pulls back to the expected pair of extensions, and that the
    classifier names the condition accordingly.  One report row per flip,
    ``("flip {letter}: {a} vs {b}", ok, condition)``."""
    rows = []
    for letter, (lead_a, lead_b) in CONJUGATION_ITEMS:
        pulled = (ExprAst(base, (letter, p, *ADJOINT * 4, q)) for p, q in ("ts", "st"))
        order_of_pulled = {e: limit_order(e) for e in pulled}
        stated = (extension_expr(lead_a, base), extension_expr(lead_b, base))
        stated_by_order = {limit_order(e): e for e in stated}
        verdict = classify(stated[0], stated[1])
        ok = (
            set(order_of_pulled.values()) == stated_by_order.keys()
            and verdict.kind == EQUAL_IFF
            and verdict.condition == f"close-to-regular({base}^{letter})"
            and all(
                classify(e, stated_by_order[order]).kind == UNCOND_EQUAL
                for e, order in order_of_pulled.items()
            )
        )
        rows.append((
            f"flip {letter}: {stated[0].render()} vs {stated[1].render()}",
            ok,
            verdict.condition or verdict.kind,
        ))
    return tuple(rows)
