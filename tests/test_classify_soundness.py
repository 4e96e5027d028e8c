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
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc.expr import ExprAst
from arenscalc.semantics import (
    DISTINCT, EQUAL_IFF, NOT_COMPARABLE, UNCOND_EQUAL, axis_semantics, classify,
    default_labels, limit_order,
)
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


def _input_axes(arity: int) -> list[str]:
    return sorted(default_labels(arity)[1:])


def _four_adjoint_words(arity: int, length: int = 8):
    """Every word of up to ``length`` letters with exactly four adjoints;
    ``limit_order`` refuses any other adjoint count outright."""
    flips = LETTERS[arity][1:]
    for size in range(4, length + 1):
        for stars in combinations(range(size), 4):
            for fill in product(flips, repeat=size - 4):
                rest = iter(fill)
                yield tuple("*" if k in stars else next(rest) for k in range(size))


@pytest.mark.parametrize("arity", sorted(LETTERS))
def test_limit_orders_name_each_input_axis_of_the_map_once(arity):
    orders = {limit_order(ExprAst("f", word), arity) for word in _four_adjoint_words(arity)}
    orders.discard(None)
    assert orders
    assert all(sorted(order) == _input_axes(arity) for order in orders), orders


# 3 000 pairs: the verdict of each, joined as lines of
# arity, left, right, kind, condition and witness (JSON, sorted keys)
PINNED_SHA256 = "b04dd31e9ea44a152677dbbb948309e591b8cfd897ad899a732e5e2e9b67f58c"
PINNED_KINDS = {"UNCOND-EQUAL": 1014, "EQUAL-IFF": 283, "DISTINCT": 1098, "NOT-COMPARABLE": 605}


def test_seeded_verdicts_are_pinned_and_sound():
    lines, kinds = [], Counter()
    for arity, left, right in word_pairs(2024, 3000):
        v = _verdict(arity, left, right)
        _check_sound(arity, left, right, v.kind)
        for key in ("limit_order", "left_order", "right_order"):
            if key in v.witness:
                assert sorted(v.witness[key]) == _input_axes(arity), (arity, left, right)
        kinds[v.kind] += 1
        witness = json.dumps(v.witness, sort_keys=True)
        lines.append(f"{arity}\t{left}\t{right}\t{v.kind}\t{v.condition}\t{witness}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert dict(kinds) == PINNED_KINDS
    assert digest == PINNED_SHA256


# ---------------------------------------------------------------------------
# every state of the fold
#
# A word's realization is the base map's axes in the fold's order, each
# at its dual level, and a dual level enters only through its parity (a
# label toggled or not).  So the states reachable with levels mod 2 are
# all a realization can be, and each is realized by its shortest word.


def _state(word: str, arity: int):
    """Each slot's base axis and dual level mod 2, then the codomain's."""
    asg = axis_semantics(ExprAst("f", tuple(word)), arity)
    return (asg.slot_axes, tuple(lv % 2 for lv in asg.slot_levels),
            asg.codomain_axis, asg.codomain_level % 2)


def reachable_states(arity: int) -> dict:
    """The shortest word to each state, breadth first over ``LETTERS[arity]``."""
    words, frontier = {_state("", arity): ""}, [""]
    while frontier:
        grown = [word + op for word in frontier for op in LETTERS[arity]]
        frontier = [word for word in grown if words.setdefault(_state(word, arity), word) == word]
    return words


# states, codomain axes among them, and the verdicts over all ordered pairs
STATE_TALLIES = {
    1: (2, 2, {UNCOND_EQUAL: 2, DISTINCT: 2}),
    2: (6, 3, {UNCOND_EQUAL: 8, DISTINCT: 24, NOT_COMPARABLE: 4}),
    3: (24, 4, {UNCOND_EQUAL: 54, DISTINCT: 432, NOT_COMPARABLE: 90}),
}


@pytest.mark.parametrize("arity", sorted(LETTERS))
def test_every_state_compares_by_its_codomain_axis_alone(arity):
    # two realizations are equal exactly when their codomain axes match,
    # and classify calls DISTINCT exactly the pairs across codomain axes
    states = reachable_states(arity)
    realized = {s: realize(ExprAst("f", tuple(w)), BASES[arity]) for s, w in states.items()}
    kinds = Counter()
    for (left, lw), (right, rw) in product(states.items(), repeat=2):
        same_axis = left[2] == right[2]
        if same_axis:
            assert equal(realized[left], realized[right]).equal, (lw, rw)
        else:
            with pytest.raises(ShapeMismatch):
                equal(realized[left], realized[right])
        kind = _verdict(arity, lw, rw).kind
        assert (kind == DISTINCT) == (not same_axis), (lw, rw, kind)
        kinds[kind] += 1
    assert (len(states), len({s[2] for s in states}), dict(kinds)) == STATE_TALLIES[arity]
