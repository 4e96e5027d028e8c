from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from arenscalc.expr import (
    EmptyName,
    ExprAst,
    FLIP_PERMS,
    FlipArityMismatch,
    UnknownCharacter,
    base_signature,
    compose_flips,
    parse,
    signature_of,
)


def test_parse_braced():
    ast = parse("f^{t****s}")
    assert ast.base == "f"
    assert ast.ops == ("t", "*", "*", "*", "*", "s")
    assert ast.render() == "f^{t****s}"


def test_parse_bare_and_whitespace():
    assert parse("ft****s") == parse("f^{t****s}")
    assert parse("  f ^{ t* ** * s }") == parse("f^{t****s}")
    assert parse("f") == ExprAst("f", ())
    assert parse("f^{}") == ExprAst("f", ())


def test_parse_bare_name_keeps_non_op_letters():
    # 'a' is not an operation letter, so the whole word is the name
    assert parse("gamma") == ExprAst("gamma", ())
    # trailing op letters split off in the bare form
    assert parse("fs") == ExprAst("f", ("s",))


def test_parse_errors():
    with pytest.raises(UnknownCharacter):
        parse("f^{q****}")
    with pytest.raises(UnknownCharacter):
        parse("f^{t")
    with pytest.raises(UnknownCharacter):
        parse("9f^{t}")
    with pytest.raises(EmptyName):
        parse("^{t}")
    with pytest.raises(EmptyName):
        parse("t****s")
    with pytest.raises(EmptyName):
        parse("")


@given(st.text(alphabet="*ijrts", max_size=12))
def test_parse_render_round_trip(ops):
    ast = ExprAst("f", tuple(ops))
    assert parse(ast.render()) == ast


# ---------------------------------------------------------------------------
# flips: defining domains and the composition table
#
# The operational meaning of each flip, straight from its defining equation:
# f^i(y,x,z) = f(x,y,z) says (f^i)(a,b,c) = f(b,a,c), and so on.  These
# lambdas are the oracle; the permutation table must reproduce them.

_FLIP_ACTION = {
    "i": lambda g: lambda a, b, c: g(b, a, c),
    "j": lambda g: lambda a, b, c: g(a, c, b),
    "r": lambda g: lambda a, b, c: g(c, b, a),
    "t": lambda g: lambda a, b, c: g(b, c, a),
    "s": lambda g: lambda a, b, c: g(c, a, b),
}

_FLIP_DOMAINS = {
    "i": "Y x X x Z -> W",
    "j": "X x Z x Y -> W",
    "r": "Z x Y x X -> W",
    "t": "Z x X x Y -> W",
    "s": "Y x Z x X -> W",
}


def _base(*args):
    return args


def _perm_of_action(fn) -> tuple[int, ...]:
    """Recover the new-slot-source permutation of a concrete flipped map."""
    fed = fn(0, 1, 2)  # what reaches the base map's slots
    # fed[m] = u_{inv[m]}  =>  perm[k] = position of k in fed
    return tuple(fed.index(k) for k in range(3))


def test_flip_domains():
    for letter, want in _FLIP_DOMAINS.items():
        assert signature_of(parse(f"f^{{{letter}}}")).render() == want


def test_flip_perms_match_defining_actions():
    for letter, act in _FLIP_ACTION.items():
        assert _perm_of_action(act(_base)) == FLIP_PERMS[letter]


def test_compose_flips_against_operational_oracle():
    letters = list(_FLIP_ACTION)
    for a in letters:
        for b in letters:
            acted = _FLIP_ACTION[b](_FLIP_ACTION[a](_base))
            want = _perm_of_action(acted)
            assert compose_flips(FLIP_PERMS[a], FLIP_PERMS[b]) == want


def test_known_compositions():
    assert compose_flips(FLIP_PERMS["t"], FLIP_PERMS["s"]) == (0, 1, 2)
    assert compose_flips(FLIP_PERMS["s"], FLIP_PERMS["t"]) == (0, 1, 2)
    assert compose_flips(FLIP_PERMS["r"], FLIP_PERMS["s"]) == FLIP_PERMS["i"]
    assert compose_flips(FLIP_PERMS["r"], FLIP_PERMS["t"]) == FLIP_PERMS["j"]


def test_flips_form_the_symmetric_group():
    elems = set(FLIP_PERMS.values()) | {(0, 1, 2)}
    assert len(elems) == 6
    for a in elems:
        assert any(compose_flips(a, b) == compose_flips(b, a) == (0, 1, 2) for b in elems)
        for b in elems:
            assert compose_flips(a, b) in elems
            for c in elems:
                assert compose_flips(compose_flips(a, b), c) == compose_flips(
                    a, compose_flips(b, c)
                )


# ---------------------------------------------------------------------------
# signatures


def test_adjoint_signature_tower():
    sigs = [signature_of(ExprAst("f", ("*",) * k)).render() for k in range(5)]
    assert sigs == [
        "X x Y x Z -> W",
        "W* x X x Y -> Z*",
        "Z** x W* x X -> Y*",
        "Y** x Z** x W* -> X*",
        "X** x Y** x Z** -> W**",
    ]


def test_signature_example_with_flip():
    assert signature_of(parse("f^{s}")).render() == "Y x Z x X -> W"
    assert signature_of(parse("f^{t****s}")).render() == "X** x Y** x Z** -> W**"


def test_bilinear_signatures():
    m = base_signature(2)
    assert m.render() == "X x Y -> Z"
    assert signature_of(parse("m^{*}"), m).render() == "Z* x X -> Y*"
    assert signature_of(parse("m^{***}"), m).render() == "X** x Y** -> Z**"
    assert signature_of(parse("m^{r}"), m).render() == "Y x X -> Z"


def test_flip_arity_mismatch():
    m = base_signature(2)
    for letter in "ijts":
        with pytest.raises(FlipArityMismatch):
            signature_of(parse(f"m^{{{letter}}}"), m)
    lin = base_signature(1)
    with pytest.raises(FlipArityMismatch):
        signature_of(parse("h^{r}"), lin)


@given(st.text(alphabet="*ijrts", max_size=10))
def test_ops_preserve_arity(ops):
    sig = signature_of(ExprAst("f", tuple(ops)))
    assert sig.arity == 3
    # the four base spaces are only ever rearranged, never lost
    spaces = sorted([ref.base for ref in sig.inputs] + [sig.codomain.base])
    assert spaces == ["W", "X", "Y", "Z"]


def test_collapsed_levels():
    sig = signature_of(parse("f^{******}"))
    assert sig.render() == "Z**** x W*** x X** -> Y***"
    assert sig.collapsed().render() == "Z x W* x X -> Y*"


# each refusal of the public expression calls: the call, its exception type and message
REFUSALS = {
    "flips of different lengths": (lambda: compose_flips((0, 1, 2), (1, 0)),
                                   FlipArityMismatch, "cannot compose flips of lengths 3 and 2"),
    "no default signature": (lambda: base_signature(4),
                             FlipArityMismatch, "no default signature at arity 4"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_are_pinned(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
