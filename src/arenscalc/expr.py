"""Expressions over a multilinear base map: adjoints and argument flips.

An expression is a base-map name followed by a string of postfix operations,
written either as ``f^{t****s}`` or bare as ``ft****s``.  Each ``*`` takes the
adjoint; each letter in ``ijrts`` permutes the argument slots.  Operations
apply left to right as written.

For an n-linear map f : S1 x ... x Sn -> C the adjoint f^* is the (unique)
n-linear map with

    <f^*(c', s1, ..., s_{n-1}), sn> = <c', f(s1, ..., sn)>,

so f^* : C^* x S1 x ... x S_{n-1} -> Sn^*.  A flip permutes the inputs and
leaves the codomain alone.  The five named flips at arity 3 are

    f^i(y, x, z) = f(x, y, z)      f^j(x, z, y) = f(x, y, z)
    f^r(z, y, x) = f(x, y, z)      f^t(z, x, y) = f(x, y, z)
    f^s(y, z, x) = f(x, y, z)

and together with the identity they form the full symmetric group on three
slots.  Only ``r`` makes sense at arity 2 (the plain transpose).
"""

from __future__ import annotations

from collections import namedtuple

ADJOINT = "*"
FLIP_LETTERS = "ijrts"
OP_ALPHABET = ADJOINT + FLIP_LETTERS

# new-slot k draws from old-slot FLIP_PERMS[name][k] (0-based)
FLIP_PERMS: dict[str, tuple[int, ...]] = {
    "i": (1, 0, 2),
    "j": (0, 2, 1),
    "r": (2, 1, 0),
    "t": (2, 0, 1),
    "s": (1, 2, 0),
}


class ExprError(Exception):
    """Base class for expression-layer failures."""


class UnknownCharacter(ExprError):
    """A character outside the operation alphabet (or a malformed name)."""


class EmptyName(ExprError):
    """The base-map name is missing."""


class FlipArityMismatch(ExprError):
    """A flip was applied at an arity that does not support it."""


def compose_flips(first: tuple[int, ...], then: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation of applying ``first`` and afterwards ``then``.

    With the new-slot-source convention, applying p then q to a map sends
    slot k to p[q[k]].
    """
    if len(first) != len(then):
        raise FlipArityMismatch(
            f"cannot compose flips of lengths {len(first)} and {len(then)}"
        )
    return tuple(first[k] for k in then)


def flip_perm(letter: str, arity: int) -> tuple[int, ...]:
    """The slot permutation of a named flip at the given arity."""
    if arity == 3:
        return FLIP_PERMS[letter]
    if arity == 2 and letter == "r":
        return (1, 0)
    raise FlipArityMismatch(f"flip '{letter}' is not defined at arity {arity}")


class ExprAst(namedtuple("ExprAst", "base ops", defaults=((),))):
    """A named base map with a tuple of postfix operations."""

    __slots__ = ()

    def render(self) -> str:
        if not self.ops:
            return self.base
        return f"{self.base}^{{{''.join(self.ops)}}}"


def _check_name(name: str) -> str:
    if not name:
        raise EmptyName("expression has no base-map name")
    if not (name[0].isalpha() or name[0] == "_"):
        raise UnknownCharacter(f"invalid base-map name {name!r}")
    for ch in name:
        if not (ch.isalnum() or ch == "_"):
            raise UnknownCharacter(f"invalid character {ch!r} in base-map name")
    return name


def _check_ops(ops: str) -> tuple[str, ...]:
    for ch in ops:
        if ch not in OP_ALPHABET:
            raise UnknownCharacter(
                f"unknown operation {ch!r}; expected one of '{OP_ALPHABET}'"
            )
    return tuple(ops)


def parse(text: str) -> ExprAst:
    """Parse ``name^{ops}`` or the bare form ``name`` + trailing op letters.

    Whitespace is ignored everywhere.  In the bare form the operation suffix
    is the longest trailing run of operation characters, so ``ft****s`` reads
    as base ``f`` with ops ``t****s``; names that themselves end in operation
    letters need the braced form.
    """
    stripped = "".join(text.split())
    if "^" in stripped:
        name, _, rest = stripped.partition("^")
        if not (rest.startswith("{") and rest.endswith("}") and len(rest) >= 2):
            raise UnknownCharacter(f"expected '{{ops}}' after '^' in {text!r}")
        return ExprAst(_check_name(name), _check_ops(rest[1:-1]))
    cut = len(stripped)
    while cut > 0 and stripped[cut - 1] in OP_ALPHABET:
        cut -= 1
    return ExprAst(_check_name(stripped[:cut]), _check_ops(stripped[cut:]))


class SpaceRef(namedtuple("SpaceRef", "base level", defaults=(0,))):
    """A base space raised to some dual level: level 2 means the bidual."""

    __slots__ = ()

    def dual(self) -> "SpaceRef":
        return SpaceRef(self.base, self.level + 1)

    def render(self) -> str:
        return self.base + "*" * self.level


class Signature(namedtuple("Signature", "inputs codomain")):
    """A tuple of input spaces and a codomain, each a ``SpaceRef``."""

    __slots__ = ()

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def render(self) -> str:
        left = " x ".join(ref.render() for ref in self.inputs)
        return f"{left} -> {self.codomain.render()}"

    def collapsed(self) -> "Signature":
        """Same signature with all dual levels reduced mod 2."""
        return Signature(
            tuple(SpaceRef(ref.base, ref.level % 2) for ref in self.inputs),
            SpaceRef(self.codomain.base, self.codomain.level % 2),
        )


DEFAULT_SPACES = {3: (("X", "Y", "Z"), "W"), 2: (("X", "Y"), "Z"), 1: (("X",), "Y")}


def base_signature(arity: int = 3) -> Signature:
    if arity not in DEFAULT_SPACES:
        raise FlipArityMismatch(f"no default signature at arity {arity}")
    inputs, codomain = DEFAULT_SPACES[arity]
    return Signature(tuple(SpaceRef(n) for n in inputs), SpaceRef(codomain))


def apply_adjoint(sig: Signature) -> Signature:
    inputs = (sig.codomain.dual(),) + sig.inputs[:-1]
    return Signature(inputs, sig.inputs[-1].dual())


def apply_flip(sig: Signature, letter: str) -> Signature:
    perm = flip_perm(letter, sig.arity)
    return Signature(tuple(sig.inputs[k] for k in perm), sig.codomain)


def signature_of(expr: ExprAst, base: Signature | None = None) -> Signature:
    """Signature of an expression over its base map's signature."""
    sig = base if base is not None else base_signature(3)
    for op in expr.ops:
        sig = apply_adjoint(sig) if op == ADJOINT else apply_flip(sig, op)
    return sig
