from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from arenscalc import semantics
from arenscalc.expr import (
    FLIP_PERMS,
    ExprAst,
    FlipArityMismatch,
    compose_flips,
    flip_perm,
    parse,
)
from arenscalc.semantics import (
    ARENS_FLIPS,
    DISTINCT,
    EQUAL_IFF,
    EXTENSION_FLIPS,
    NOT_COMPARABLE,
    UNCOND_EQUAL,
    axis_semantics,
    classify,
    classify_text,
    condition_name,
    extension_expr,
    flip_conjugation_checks,
    limit_order,
    natural_extensions,
)

# the six extension shapes and their iterated limit orders, outermost first
GOLDEN_ORDERS = {
    "f^{i****i}": ("in2", "in1", "in3"),
    "f^{j****j}": ("in1", "in3", "in2"),
    "f^{r****r}": ("in3", "in2", "in1"),
    "f^{****}": ("in1", "in2", "in3"),
    "f^{t****s}": ("in3", "in1", "in2"),
    "f^{s****t}": ("in2", "in3", "in1"),
}


def test_extension_words_of_the_six_leads():
    words = {lead: extension_expr(lead).render() for lead in EXTENSION_FLIPS}
    assert words == {
        "i": "f^{i****i}",
        "j": "f^{j****j}",
        "r": "f^{r****r}",
        "": "f^{****}",
        "t": "f^{t****s}",
        "s": "f^{s****t}",
    }


def test_extension_words_at_arity_2_are_the_arens_products():
    words = [extension_expr(lead, "m", arity=2).render() for lead in ARENS_FLIPS]
    assert words == ["m^{***}", "m^{r***r}"]


def test_golden_limit_orders():
    for text, want in GOLDEN_ORDERS.items():
        assert limit_order(parse(text)) == want, text


def test_natural_extensions_cover_all_orders():
    exts = natural_extensions()
    assert len(exts) == 6
    rendered = {expr.render(): order for expr, order in exts}
    assert rendered == GOLDEN_ORDERS
    assert len({order for _, order in exts}) == 6


def test_composite_leading_flips_share_an_order():
    # leading flips compose; the trailing flip only renames slots
    assert limit_order(parse("f^{rs****t}")) == GOLDEN_ORDERS["f^{i****i}"]
    assert limit_order(parse("f^{rt****s}")) == GOLDEN_ORDERS["f^{j****j}"]


def test_not_canonical_shapes():
    for text in ("f", "f^{*}", "f^{***}", "f^{*****}", "f^{t**i**s}", "f^{s*****s}"):
        assert limit_order(parse(text)) is None, text


def test_axis_semantics_of_extension():
    asg = axis_semantics(parse("f^{t****s}"))
    assert asg.slot_axes == ("in1", "in2", "in3")
    assert asg.slot_levels == (2, 2, 2)
    assert asg.codomain_axis == "out"
    assert asg.codomain_level == 2


def test_axis_semantics_of_adjoint_tower():
    asg = axis_semantics(parse("f^{***}"))
    assert asg.slot_axes == ("in2", "in3", "out")
    assert asg.slot_levels == (2, 2, 1)
    assert asg.codomain_axis == "in1"
    assert asg.codomain_level == 1


def test_axis_semantics_rejects_bad_flip():
    with pytest.raises(FlipArityMismatch):
        axis_semantics(parse("m^{i}"), base_arity=2)


# ---------------------------------------------------------------------------
# classifier


def test_classify_defining_pair():
    v = classify_text("f^{t****s}", "f^{s****t}")
    assert v.kind == EQUAL_IFF
    assert v.condition == "close-to-regular(f)"
    assert v.render() == "EQUAL-IFF close-to-regular(f)"


def test_classify_conjugated_proof_identities():
    assert classify_text("f^{i****i}", "f^{rs****t}").kind == UNCOND_EQUAL
    assert classify_text("f^{j****j}", "f^{rt****s}").kind == UNCOND_EQUAL


def test_classify_same_expression():
    for text in ("f", "f^{*}", "f^{t****s}", "f^{ts}"):
        assert classify_text(text, text).kind == UNCOND_EQUAL, text


def test_classify_flip_only_pairs():
    # pure flips carry no limits and align slot-for-axis
    assert classify_text("f", "f^{ts}").kind == UNCOND_EQUAL
    assert classify_text("f^{i}", "f^{j}").kind == UNCOND_EQUAL


def test_classify_distinct_signatures():
    v = classify_text("f", "f^{*}")
    assert v.kind == DISTINCT
    assert "left_signature" in v.witness


def test_classify_not_comparable():
    # an extension lives on the biduals, the base map does not
    assert classify_text("f", "f^{****}").kind == NOT_COMPARABLE
    # equal parities but different raw dual levels
    assert classify_text("f^{s*****s}", "f^{t******j}").kind == NOT_COMPARABLE
    # same spaces, same levels, but no limit order: undecided symbolically
    assert classify_text("f^{****t**s}", "f^{t**s****}").kind == NOT_COMPARABLE


def test_classify_different_bases():
    assert classify_text("f^{****}", "g^{****}").kind == NOT_COMPARABLE


def test_classify_is_symmetric():
    pairs = [
        ("f^{t****s}", "f^{s****t}"),
        ("f^{i****i}", "f^{r****r}"),
        ("f^{****}", "f^{t****s}"),
        ("f", "f^{*}"),
        ("f", "f^{****}"),
        ("f^{i****i}", "f^{rs****t}"),
    ]
    for a, b in pairs:
        va, vb = classify_text(a, b), classify_text(b, a)
        assert va.kind == vb.kind
        assert va.condition == vb.condition


def test_named_conditions():
    cases = {
        ("f^{i****i}", "f^{j****j}"): "close-to-regular(f^r)",
        ("f^{j****j}", "f^{r****r}"): "close-to-regular(f^i)",
        ("f^{i****i}", "f^{r****r}"): "close-to-regular(f^j)",
        ("f^{s****t}", "f^{****}"): "close-to-regular(f^t)",
        ("f^{t****s}", "f^{****}"): "close-to-regular(f^s)",
    }
    for (a, b), want in cases.items():
        v = classify_text(a, b)
        assert v.kind == EQUAL_IFF
        assert v.condition == want


def test_generic_condition_name():
    v = classify_text("f^{i****i}", "f^{t****s}")
    assert v.kind == EQUAL_IFF
    assert v.condition.startswith("limit-interchange(")
    # deterministic regardless of argument order
    assert v.condition == classify_text("f^{t****s}", "f^{i****i}").condition


def test_base_name_appears_in_condition():
    v = classify_text("D^{t****s}", "D^{s****t}")
    assert v.condition == "close-to-regular(D)"


def test_condition_name_direct():
    a = limit_order(parse("f^{t****s}"))
    b = limit_order(parse("f^{s****t}"))
    assert condition_name(a, b) == "close-to-regular(f)"


# ---------------------------------------------------------------------------
# conjugation correspondences


def test_flip_conjugation_checks():
    rows = flip_conjugation_checks()
    assert all(ok for _, ok, _ in rows)
    assert len(rows) == 5
    by_flip = {}
    for name, _, condition in rows:
        flip, pair = name.removeprefix("flip ").split(": ")
        by_flip[flip] = (tuple(pair.split(" vs ")), condition)
    assert by_flip["r"][1] == "close-to-regular(f^r)"
    assert by_flip["t"][0] == ("f^{s****t}", "f^{****}")
    assert by_flip["s"][0] == ("f^{t****s}", "f^{****}")


def _failing_rows(rows):
    return {name.split(":")[0]: detail for name, ok, detail in rows if not ok}


def test_flip_conjugation_checks_fail_on_a_swapped_condition_table(monkeypatch):
    swap = {"i": "j", "j": "i"}
    table = {pair: swap.get(letter, letter) for pair, letter in semantics._CTR_TABLE.items()}
    monkeypatch.setattr(semantics, "_CTR_TABLE", table)
    assert _failing_rows(flip_conjugation_checks()) == {
        "flip i": "close-to-regular(f^j)",
        "flip j": "close-to-regular(f^i)",
    }


def test_flip_conjugation_checks_fail_on_a_wrong_stated_pair(monkeypatch):
    items = tuple(
        (letter, ("i", "") if letter == "t" else pair)
        for letter, pair in semantics.CONJUGATION_ITEMS
    )
    monkeypatch.setattr(semantics, "CONJUGATION_ITEMS", items)
    assert _failing_rows(flip_conjugation_checks()) == {
        "flip t": "limit-interchange((in1,in2,in3),(in2,in1,in3))",
    }


def test_classify_respects_equivalence_through_trailing_flips():
    # same leading flip, different trailing flips: same order, equal outright
    v = classify(parse("f^{t****s}"), parse("f^{t****i}"))
    assert v.kind == UNCOND_EQUAL


# ---------------------------------------------------------------------------
# restated references: the condition table as typed out by hand, and the
# limit-order state machine, both checked against the derived versions

AXES = ("in1", "in2", "in3")

# unordered pair of leading-flip permutations -> flip of the base map whose
# close-to-regularity the interchange amounts to ("" = the base map itself)
HAND_CTR_TABLE = {
    frozenset({FLIP_PERMS["t"], FLIP_PERMS["s"]}): "",
    frozenset({FLIP_PERMS["i"], FLIP_PERMS["j"]}): "r",
    frozenset({FLIP_PERMS["j"], FLIP_PERMS["r"]}): "i",
    frozenset({FLIP_PERMS["i"], FLIP_PERMS["r"]}): "j",
    frozenset({FLIP_PERMS["s"], (0, 1, 2)}): "t",
    frozenset({FLIP_PERMS["t"], (0, 1, 2)}): "s",
}


def _hand_condition_name(order_a, order_b, base="f"):
    key = frozenset(tuple(AXES.index(axis) for axis in order) for order in (order_a, order_b))
    letter = HAND_CTR_TABLE.get(key)
    if letter is None:
        lo, hi = sorted((order_a, order_b))
        return f"limit-interchange(({','.join(lo)}),({','.join(hi)}))"
    return f"close-to-regular({base})" if letter == "" else f"close-to-regular({base}^{letter})"


def test_condition_name_matches_hand_table_on_all_pairs():
    orders = list(GOLDEN_ORDERS.values())
    pairs = list(combinations(orders, 2))
    assert len(pairs) == 15
    named = 0
    for a, b in pairs:
        for base in ("f", "D"):
            want = _hand_condition_name(a, b, base)
            assert condition_name(a, b, base) == want, (a, b)
            assert condition_name(b, a, base) == want, (b, a)
        named += want.startswith("close-to-regular(")
    assert named == 6


def _state_machine_limit_order(ops):
    lead = (0, 1, 2)
    adjoints = 0
    state = "lead"
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
    if adjoints != 4:
        return None
    return tuple(AXES[k] for k in lead)


# flip runs joined by adjoints: 0-6 adjoints with flips before, between
# and after them
_flip_runs = st.lists(st.text(alphabet="ijrts", max_size=3), min_size=1, max_size=7)


@settings(max_examples=400, deadline=None)
@given(_flip_runs)
def test_limit_order_matches_state_machine(runs):
    ops = tuple("*".join(runs))
    assert limit_order(ExprAst("f", ops)) == _state_machine_limit_order(ops)


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="ijrts", max_size=4),
    st.lists(st.text(alphabet="ijrts", max_size=2), min_size=3, max_size=3),
    st.text(alphabet="ijrts", max_size=4),
)
def test_limit_order_four_adjoints_matches_state_machine(lead, between, trail):
    # flips between the adjoints are the case the canonical test rules out
    ops = tuple(lead + "*" + "*".join(between) + "*" + trail)
    assert limit_order(ExprAst("f", ops)) == _state_machine_limit_order(ops)
