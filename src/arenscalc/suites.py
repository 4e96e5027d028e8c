"""Batch verification suites over random instances and fixed fixtures.

Each runner returns a ``(title, rows)`` section of ``(name, passed,
detail)`` rows so the command-line report can render them as one
document.  All randomness flows from a single seed; a fixed seed gives
a byte-identical report.

The chain catalog collects the displayed two-sided tensor equalities
from the equivalence arguments this package models: the criteria for
the two three-cycle extensions to agree, the limit-interchange
hypotheses and what they force, the tower of equalities behind the
all-six-coincide criterion, the pulled-back conjugation pairs, and the
hypotheses used by the nested-map construction.  Every one of them is
an exact transposition fact for finite rational tensors, so a single
mismatch in millions of entries marks a bookkeeping bug.
"""

from __future__ import annotations

import random
from itertools import chain

from .algebra import (
    BRIDGE_ROWS,
    GROUP_FIXTURES,
    ConstraintViolated,
    cayley_fixture,
    extensions,
    group_algebra,
    nested_bilinear_check,
    slice_bridge_check,
)
from .derivation import (
    Row,
    composite_extension_checks,
    derivation_fixture,
    fourth_adjoint_check,
    is_tri_derivation,
    tally_rows,
)
from .derivation import _poly3_euler, _poly3_module, _structure, _zero
from .semantics import (
    EXTENSION_FLIPS,
    UNCOND_EQUAL,
    classify_text,
    flip_conjugation_checks,
    natural_extensions,
)
from .tensor import (
    compose_codomain,
    compose_into_slot,
    equal,
    from_function,
    prepared,
    random_map,
    vector,
)
from .tensor import _draw


GOLDEN_ORDERS = {
    "f^{i****i}": ("in2", "in1", "in3"),
    "f^{j****j}": ("in1", "in3", "in2"),
    "f^{r****r}": ("in3", "in2", "in1"),
    "f^{****}": ("in1", "in2", "in3"),
    "f^{t****s}": ("in3", "in1", "in2"),
    "f^{s****t}": ("in2", "in3", "in1"),
}

CHAIN_GROUPS = (
    (
        "close-to-regular criteria",
        (
            ("f^{s***t*}", "f^{t**}"),
            ("f^{s******}", "f^{t***}"),
            ("f^{t*****}", "f^{s***t}"),
            ("f^{s****t}", "f^{t****s}"),
        ),
    ),
    (
        "limit interchange",
        (
            ("f^{****s**t}", "f^{s**t****}"),
            ("f^{****t**s}", "f^{t**s****}"),
            ("f^{****}", "f^{s****t}"),
            ("f^{****}", "f^{t****s}"),
        ),
    ),
    (
        "complete regularity tower",
        (
            ("f^{******}", "f^{i***s}"),
            ("f^{*****}", "f^{r***r}"),
            ("f^{i****i}", "f^{****}"),
            ("f^{j****j}", "f^{****}"),
            ("f^{r****r}", "f^{****}"),
        ),
    ),
    (
        "conjugation pullbacks",
        (
            ("f^{i****i}", "f^{rs****t}"),
            ("f^{j****j}", "f^{rt****s}"),
        ),
    ),
    (
        "nested-map hypotheses",
        (
            ("f^{t***r}", "f^{r***t}"),
            ("f^{t****s}", "f^{r****r}"),
        ),
    ),
)

_DIM_CHOICES = (1, 2, 3)
CHUNK = 256  # the most instances drawn and checked as one stack: bounds memory, not rows

Dims = tuple[int, ...] | None
Section = tuple[str, tuple[Row, ...]]  # (title, rows)


def _pick_dims(rng: random.Random, count: int, fixed: Dims) -> tuple[int, ...]:
    if fixed is None:
        return tuple(rng.choice(_DIM_CHOICES) for _ in range(count))
    return (fixed * count)[:count]  # the fixed dims, repeated as needed


def _tri(rng: random.Random, fixed: Dims = None) -> tuple:
    """The next tri-linear ``f`` as ``(roles, parts)``: its dims picked, then its seed drawn."""
    dx, dy, dz, dw = _pick_dims(rng, 4, fixed)
    return ((3, (dx, dy, dz), dw, "f"),), (rng.randrange(1 << 30),)


def _disagree(maps) -> str:
    """The first failure of ``equal(first, other)`` over the others, in order; "" if none."""
    first, *others = maps
    for other in others:
        rep = equal(first, other)
        if not rep.equal:
            return rep.render()
    return ""


def _stacks(roles, parts) -> list:
    """One stack per role, instance k of role r the ``random_map`` of seed
    ``parts[k][r]``, then each later part of the instances laid end to end."""
    columns = tuple(zip(*parts))
    maps = [_draw(seeds, *role) for role, seeds in zip(roles, columns)]
    return maps + [tuple(chain.from_iterable(rest)) for rest in columns[len(roles):]]


def _failures(check, count: int, draw) -> list:
    """``(k, check(*instance k))`` for each failing instance k < ``count``,
    in order, where ``check`` gives something false on a pass.  ``draw()``
    draws the next instance as ``(roles, parts)``: the roles, each
    ``(arity, input_dims, codomain_dim, name)``, and what it is built from,
    one seed per role and then any further parts.  ``CHUNK`` instances at a
    time are grouped by roles, and ``_stacks`` builds each group into the
    arguments of one ``check``; a group that fails is built and checked
    again instance by instance, from its own parts."""
    failures = []
    for start in range(0, count, CHUNK):
        groups: dict[tuple, list] = {}  # roles -> their (instance, parts) pairs, in order
        for k in range(start, min(start + CHUNK, count)):
            roles, parts = draw()
            groups.setdefault(roles, []).append((k, parts))
        for roles, drawn in groups.items():
            if check(*_stacks(roles, [parts for _, parts in drawn])):
                singles = ((k, check(*_stacks(roles, [parts]))) for k, parts in drawn)
                failures += [(k, bad) for k, bad in singles if bad]
    return sorted(failures)  # instances are unique, so the order is theirs


def run_limit_order_goldens() -> Section:
    rows = []
    for expr, order in natural_extensions("f"):
        want = GOLDEN_ORDERS[expr.render()]
        rows.append((
            f"{expr.render()} -> ({', '.join(want)})",
            order == want,
            "" if order == want else f"got ({', '.join(order)})",
        ))
    return "Limit orders of the six extensions", tuple(rows)


def run_symbolic_suite() -> Section:
    rows = list(flip_conjugation_checks("f"))
    for a, b in dict(CHAIN_GROUPS)["conjugation pullbacks"]:
        verdict = classify_text(a, b)
        rows.append((f"{a} = {b}", verdict.kind == UNCOND_EQUAL, verdict.render()))
    return "Symbolic classifier", tuple(rows)


def run_extension_sweep(seed: int, trials: int = 100, dims: Dims = None) -> Section:
    rng = random.Random(seed)
    failures = _failures(lambda f: _disagree(extensions(f, EXTENSION_FLIPS).values()), trials,
                         lambda: _tri(rng, dims))
    detail = f"{trials - len(failures)}/{trials} trials"
    if failures:
        detail += "; first failure: trial %d: %s" % failures[0]
    return "Six-extension sweep on random tensors", (
        ("all six realized extensions coincide", not failures, detail),
    )


def run_chain_suite(seed: int, instances: int = 25, dims: Dims = None) -> Section:
    rng = random.Random(seed)
    rows = []
    for group, pairs in CHAIN_GROUPS:
        for lhs_text, rhs_text in pairs:
            lhs, rhs = prepared(lhs_text, 3), prepared(rhs_text, 3)
            bad = _failures(lambda f: _disagree((lhs(f), rhs(f))), instances,
                            lambda: _tri(rng, dims))
            detail = "instance %d: %s" % bad[0] if bad else f"{instances}/{instances} instances"
            rows.append((f"[{group}] {lhs_text} = {rhs_text}", not bad, detail))
    return "Proof-chain identities", tuple(rows)


def run_factorization_suite(seed: int, instances: int = 25, dims: Dims = None) -> Section:
    rng = random.Random(seed)
    labels = (
        "single-sided factor identity",
        "single-sided pointwise form",
        "two-sided first identity",
        "two-sided second identity",
        "two-sided construction consistency",
    )
    # a prepared fold names its result after the map it is applied to,
    # not after the base its word is written on
    words = ("f^{t*****}", "f^{t****s}", "f^{*****}", "f^{******}")
    t5, t4s, a5, a6 = (prepared(word, 3) for word in words)
    h3 = prepared("h^{***}", 1)

    def draw():
        dx, dy, dz, dw, ds = _pick_dims(rng, 5, dims)
        roles = ((3, (dx, ds, dz), dw, "g"), (1, (dy,), ds, "h"), (3, (dx, ds, ds), dw, "c"),
                 (1, (dy,), ds, "h1"), (1, (dz,), ds, "h2"))
        return roles, tuple(rng.randrange(1 << 30) for _ in roles)

    def check(g, h, core, h1, h2):
        """The failing ``(label, False, detail)`` results of one instance or stack."""
        f = compose_into_slot(g, h, 2, name="f")
        gg = compose_into_slot(core, h2, 3, name="g")
        kk = compose_into_slot(core, h1, 2, name="K")
        f2 = compose_into_slot(gg, h1, 2, name="f")
        reps = zip(labels, (
            equal(t5(f), compose_codomain(h3(h), t5(g))),
            equal(t4s(f), compose_into_slot(t4s(g), h, 2)),
            equal(a5(f2), compose_codomain(h3(h2), a5(kk))),
            equal(a6(f2), compose_codomain(h3(h1), a6(gg))),
            equal(f2, compose_into_slot(kk, h2, 3, name="f")),
        ))
        return [(label, False, rep.render()) for label, rep in reps if not rep.equal]

    failures = _failures(check, instances, draw)
    results = (result for _, bad in failures for result in bad)
    rows = tally_rows(results, f"{instances}/{instances} instances", labels)
    return "Factorization through a linear map", tuple(rows)


def run_slice_bridge_suite(seed: int, pairs: int = 25, dims: Dims = None) -> Section:
    rng = random.Random(seed)

    def draw():  # the map's seed, then its functional's values
        roles, parts = _tri(rng, dims)
        return roles, parts + (vector(rng.randint(-9, 9) for _ in range(roles[0][2])),)

    failures = _failures(lambda f, w: [row for row in slice_bridge_check(f, w)[1] if not row[1]],
                         pairs, draw)
    results = (result for _, bad in failures for result in bad)
    return "Bilinear slice bridge", tuple(tally_rows(results, f"{pairs}/{pairs} pairs", BRIDGE_ROWS))


def run_nested_bilinear_cases(seed: int) -> Section:
    rows = []
    f = random_map(3, (2, 2, 2), 2, seed=seed, name="f")
    zero2 = from_function("m", (2, 2), 2, lambda *_: 0)
    try:
        checks = nested_bilinear_check(f, zero2, zero2)
        ok = all(flag for _, flag, _ in checks)
        rows.append(("zero inner map accepted", ok, "; ".join(d for _, _, d in checks)))
    except ConstraintViolated as exc:
        rows.append(("zero inner map accepted", False, str(exc)))

    scalar_f = from_function("f", (1, 1, 1), 1, lambda *_: 1)
    scalar_inner = from_function("m", (1, 1), 1, lambda *_: 1)
    scalar_cand = from_function("th", (1, 1), 1, lambda *_: 1)
    try:
        nested_bilinear_check(scalar_f, scalar_inner, scalar_cand)
        rows.append(("nonlinear scalar candidate rejected", False, "no violation raised"))
    except ConstraintViolated as exc:
        rows.append(("nonlinear scalar candidate rejected", True, str(exc)))

    zero1 = from_function("m", (1, 1), 1, lambda *_: 0)
    try:
        checks = nested_bilinear_check(scalar_f, zero1, zero1)
        rows.append(("zero scalar case accepted", all(flag for _, flag, _ in checks), ""))
    except ConstraintViolated as exc:
        rows.append(("zero scalar case accepted", False, str(exc)))
    return "Nested bilinear constraint", tuple(rows)


def run_group_fixture_suite(names=GROUP_FIXTURES) -> Section:
    rows = []
    for name in names:
        model, triple = group_algebra(cayley_fixture(name))
        bad = _disagree(extensions(triple, EXTENSION_FLIPS).values())
        rows.append((f"{name}: six extensions coincide", not bad, bad))
        pi = model.multiplication
        stacked = compose_into_slot(pi, pi, 1, name="pipi")
        rep = equal(triple, stacked)
        rows.append((f"{name}: triple map factors through the product", rep.equal, rep.render()))
    return "Finite group convolution (complete regularity)", tuple(rows)


def run_derivation_suite() -> Section:
    rows = []
    poly3 = _poly3_module()  # built once for both candidates on it
    for cand in (_zero(poly3), _poly3_euler(poly3)):
        s = _structure(cand)  # the compositions every check below reads
        rows.append((f"{cand.name}: slot identities hold", s.report.holds, s.report.render()))
        for title, checks in (
            ("fourth-adjoint harness", fourth_adjoint_check(s)),
            ("composite extension statements", composite_extension_checks(s)),
        ):
            rows.append((
                f"{cand.name}: {title} ({len(checks)} checks)",
                all(ok for _, ok, _ in checks),
                "; ".join(lbl for lbl, ok, _ in checks if not ok) or "all passed",
            ))
    for name in ("z3-conv", "matrix2-inner"):
        cand = derivation_fixture(name)
        rep = is_tri_derivation(cand)
        rows.append((f"{name}: rejected with witness", not rep.holds, rep.render()))
    return "Tri-derivations and the fourth adjoint", tuple(rows)


def run_adjoint_pairing(seed: int, instances: int = 200, dims: Dims = None) -> Section:
    rng = random.Random(seed)

    def fails(f):
        fstar = prepared("f^{*}", f.arity)(f)  # the adjoint the package itself uses
        # <f*(e_l, e_i1, .., e_i(n-1)), e_in> = <e_l, f(e_i1, .., e_in)>: row-major
        # f* is f read with its last axis (stride 1) outermost, gathered here by
        # stride off the lanes, instance by instance, so the check does not share the kernel
        (ints, den), (got, got_den) = f.lane, fstar.lane
        d, size = f.input_dims[-1], len(ints) // f.instances
        expected = tuple(chain.from_iterable(ints[o + i:o + size:d]
                                             for o in range(0, len(ints), size) for i in range(d)))
        return fstar.shape != (d,) + f.shape[:-1] or (tuple(got), got_den) != (expected, den)

    def draw():
        picked = _pick_dims(rng, rng.choice((1, 2, 3)) + 1, dims)  # input dims, then codomain
        return ((len(picked) - 1, picked[:-1], picked[-1], "f"),), (rng.randrange(1 << 30),)

    failures = [k for k, _ in _failures(fails, instances, draw)]
    detail = f"{instances - len(failures)}/{instances} instances"
    if failures:
        detail += "; failing instances: " + ", ".join(map(str, failures[:5]))
    return "Adjoint pairing identity", (
        ("pairing identity on all basis tuples", not failures, detail),
    )


def full_suite(
    seed: int = 0,
    trials: int = 100,
    instances: int = 25,
    dims: Dims = None,
    fixtures=GROUP_FIXTURES,
) -> tuple[Section, ...]:
    return (
        run_limit_order_goldens(),
        run_symbolic_suite(),
        run_extension_sweep(seed, trials, dims),
        run_chain_suite(seed + 1, instances, dims),
        run_factorization_suite(seed + 2, instances, dims),
        run_slice_bridge_suite(seed + 3, instances, dims),
        run_nested_bilinear_cases(seed + 4),
        run_group_fixture_suite(fixtures),
        run_derivation_suite(),
        run_adjoint_pairing(seed + 5, dims=dims),
    )


def render_report(sections, config_line: str) -> str:
    """Markdown report; deterministic for a fixed configuration."""
    out = ["# Extension calculus verification report", "", config_line, ""]
    total = 0
    failed = 0
    for title, rows in sections:
        out.append(f"## {title}")
        out.append("")
        out.append("| check | result | detail |")
        out.append("|---|---|---|")
        for name, passed, detail in rows:
            total += 1
            if not passed:
                failed += 1
            mark = "PASS" if passed else "FAIL"
            detail = detail.replace("|", "\\|")
            out.append(f"| {name.replace('|', chr(92) + '|')} | {mark} | {detail} |")
        out.append("")
    verdict = "all passed" if failed == 0 else f"{failed} FAILED"
    out.append(f"Summary: {total} checks, {verdict}.")
    out.append("")
    return "\n".join(out)
