"""The symbolic classifier against the numeric model.

In finite dimensions every interchange condition holds, so a pair that
``classify`` calls UNCOND-EQUAL or EQUAL-IFF must realize to equal
tensors, and a DISTINCT pair must not be comparable at all.  Both sides
are realized on a base map whose axes all have different dims, so a
misplaced axis changes the shape.  NOT-COMPARABLE claims nothing.

A seeded generator also fixes a few thousand pairs whose verdicts,
conditions and witnesses are pinned by one sha256, so a rewrite of
``classify`` that keeps every verdict keeps the pin.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc.expr import ExprAst
from arenscalc.semantics import DISTINCT, EQUAL_IFF, UNCOND_EQUAL, classify
from arenscalc.tensor import ShapeMismatch, equal, random_map, realize

LETTERS = {1: "*", 2: "*r", 3: "*ijrts"}

# distinct dims on every axis, codomain included
BASES = {
    arity: random_map(arity, tuple(range(2, arity + 2)), arity + 2, seed=arity)
    for arity in LETTERS
}


def _flips(rng: random.Random, arity: int) -> str:
    """Up to two flip letters; none at arity 1, which has no flips."""
    flips = LETTERS[arity][1:]
    return "".join(rng.choice(flips) for _ in range(rng.randint(0, 2) if flips else 0))


def word_pairs(seed: int, count: int):
    """Seeded (arity, left word, right word) pairs at arities 1-3.

    Half are two random words of up to nine letters.  The other half
    share one adjoint count (the extension count arity + 1, four, or up
    to six) with flips around it on either side, so that
    canonical-extension shapes and their EQUAL-IFF verdicts come up.
    """
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randint(1, 3)
        if rng.random() < 0.5:
            left, right = (
                "".join(rng.choice(LETTERS[arity]) for _ in range(rng.randint(0, 9)))
                for _ in range(2)
            )
        else:
            stars = "*" * rng.choice((arity + 1, 4, rng.randint(0, 6)))
            left, right = (
                _flips(rng, arity) + stars + _flips(rng, arity) for _ in range(2)
            )
        yield arity, left, right


def _verdict(arity: int, left: str, right: str):
    return classify(ExprAst("f", tuple(left)), ExprAst("f", tuple(right)), arity)


def _check_sound(arity: int, left: str, right: str, kind: str) -> None:
    base = BASES[arity]
    lhs, rhs = realize(ExprAst("f", tuple(left)), base), realize(ExprAst("f", tuple(right)), base)
    if kind in (UNCOND_EQUAL, EQUAL_IFF):
        assert equal(lhs, rhs).equal, (arity, left, right, kind)
    elif kind == DISTINCT:
        with pytest.raises(ShapeMismatch):
            equal(lhs, rhs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verdicts_hold_on_realized_maps(data):
    arity = data.draw(st.integers(1, 3))
    letters = LETTERS[arity]
    if data.draw(st.booleans()):
        left, right = (data.draw(st.text(letters, max_size=10)) for _ in range(2))
    else:  # one adjoint count with flips around it, as in the canonical extensions
        stars = "*" * data.draw(st.sampled_from((arity + 1, 4, 5)))
        flips = st.text(letters[1:], max_size=2) if arity > 1 else st.just("")
        left, right = (data.draw(flips) + stars + data.draw(flips) for _ in range(2))
    _check_sound(arity, left, right, _verdict(arity, left, right).kind)


# 3 000 pairs: the verdict of each, joined as lines of
# arity, left, right, kind, condition and witness (JSON, sorted keys)
PINNED_SHA256 = "bc12b8c37cda04f6d5a64e6f89e7abe5ce6c31d14915acdaf74bed2cd32ac866"
PINNED_KINDS = {"UNCOND-EQUAL": 1014, "EQUAL-IFF": 283, "DISTINCT": 1098, "NOT-COMPARABLE": 605}


def test_seeded_verdicts_are_pinned_and_sound():
    lines, kinds = [], Counter()
    for arity, left, right in word_pairs(2024, 3000):
        v = _verdict(arity, left, right)
        _check_sound(arity, left, right, v.kind)
        kinds[v.kind] += 1
        witness = json.dumps(v.witness, sort_keys=True)
        lines.append(f"{arity}\t{left}\t{right}\t{v.kind}\t{v.condition}\t{witness}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert dict(kinds) == PINNED_KINDS
    assert digest == PINNED_SHA256
