"""Known answers for the benchmark, restated from the calculus itself.

Nothing here imports ``arenscalc``: the expected outcome of every
operation is derived from the definitions of the adjoint and the flips,
so a bug in the package cannot also bend the answer it is checked
against.

Axis bookkeeping: a realized map is a dense tensor whose axes sit in the
order codomain, slot 1, ..., slot n.  Each axis draws from one axis of
the base map, numbered 0 (the base codomain) and 1..n (the base inputs).
The adjoint moves the last slot to the codomain and the old codomain to
slot 1; a flip permutes the slots, new slot k drawing from old slot
``FLIP_SLOTS[letter][k]``, as in ``f^i(y, x, z) = f(x, y, z)``.
"""

from __future__ import annotations

ADJOINT = "*"

FLIP_SLOTS = {
    "i": (1, 0, 2),
    "j": (0, 2, 1),
    "r": (2, 1, 0),
    "t": (2, 0, 1),
    "s": (1, 2, 0),
}
FLIP_INVERSE = {"i": "i", "j": "j", "r": "r", "t": "s", "s": "t"}


def letters(arity: int) -> str:
    """Operation letters defined at a base arity."""
    return {1: "*", 2: "*r", 3: "*ijrts"}[arity]


def flips(arity: int) -> str:
    return letters(arity)[1:]


def flip_slots(letter: str, arity: int) -> tuple[int, ...]:
    return (1, 0) if arity == 2 else FLIP_SLOTS[letter]


def axis_sources(ops: str, arity: int) -> list[int]:
    """Base axis each axis of the realized tensor draws from."""
    axes = list(range(arity + 1))
    for op in ops:
        if op == ADJOINT:
            axes = [axes[arity], axes[0]] + axes[1:arity]
        else:
            perm = flip_slots(op, arity)
            axes = [axes[0]] + [axes[1 + k] for k in perm]
    return axes


def image_index(ops: str, arity: int, base_index: tuple[int, ...]) -> tuple[int, ...]:
    """Where one base entry lands in the realization of ``ops``."""
    return tuple(base_index[a] for a in axis_sources(ops, arity))


def unravel(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    index = []
    for size in reversed(shape):
        flat, k = divmod(flat, size)
        index.append(k)
    return tuple(reversed(index))


def identity_segment(kind: str, arity: int, rng) -> str:
    """A segment whose realization is the identity on every tensor:
    a flip followed by its inverse, or n+1 adjoints (each axis comes back
    to its place with its dual level raised by two)."""
    if kind == "pair" and arity > 1:
        letter = rng.choice(flips(arity))
        return letter + (FLIP_INVERSE[letter] if arity == 3 else letter)
    return ADJOINT * (arity + 1)


def insert_segments(word: str, segments: list[str], rng) -> str:
    out = word
    for seg in segments:
        cut = rng.randrange(len(out) + 1)
        out = out[:cut] + seg + out[cut:]
    return out


# Limit orders of the six canonical extensions  lead, ****, inverse of lead
# (outermost first), and the interchange condition each pair is equal under.
LIMIT_ORDER = {
    "": ("in1", "in2", "in3"),
    "i": ("in2", "in1", "in3"),
    "j": ("in1", "in3", "in2"),
    "r": ("in3", "in2", "in1"),
    "t": ("in3", "in1", "in2"),
    "s": ("in2", "in3", "in1"),
}
_NAMED_CONDITIONS = {
    frozenset("ts"): "close-to-regular(f)",
    frozenset("ij"): "close-to-regular(f^r)",
    frozenset("jr"): "close-to-regular(f^i)",
    frozenset("ir"): "close-to-regular(f^j)",
    frozenset({"s", ""}): "close-to-regular(f^t)",
    frozenset({"t", ""}): "close-to-regular(f^s)",
}


def extension_verdict(lead_a: str, lead_b: str) -> str:
    """Rendered verdict for two arity-3 canonical extensions of f."""
    if lead_a == lead_b:
        return "UNCOND-EQUAL"
    named = _NAMED_CONDITIONS.get(frozenset({lead_a, lead_b}))
    if named is None:
        lo, hi = sorted((LIMIT_ORDER[lead_a], LIMIT_ORDER[lead_b]))
        named = f"limit-interchange(({','.join(lo)}),({','.join(hi)}))"
    return f"EQUAL-IFF {named}"


def extension_word(lead: str, arity: int, trail: str) -> str:
    """Lead flip, n+1 adjoints, then the given trailing flips."""
    return lead + ADJOINT * (arity + 1) + trail
