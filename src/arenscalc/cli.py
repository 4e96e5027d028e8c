"""Command-line front end.

Subcommands:
  parse      render an expression and its signature
  classify   symbolic equality verdict for two expressions
  check      realize two expressions numerically and compare entrywise
  report     run the full verification suite and emit a markdown report

Exit codes: 0 all checks passed, 1 a numeric identity failed,
2 usage, parse, type, or IO error.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import (
    GROUP_FIXTURES,
    InvalidAlgebra,
    InvalidCayleyTable,
    cayley_fixture,
    group_algebra,
)
from .derivation import FIXTURE_NAMES as DERIVATION_FIXTURES
from .derivation import derivation_fixture
from .expr import ExprError, base_signature, parse, signature_of
from .semantics import classify_text
from .suites import full_suite, render_report
from .tensor import (
    DimensionMismatch,
    ShapeMismatch,
    equal,
    load_map,
    random_map,
    realize,
)

PASS = 0
IDENTITY_FAILED = 1
USAGE_ERROR = 2

MAX_DIM = 6
MAX_COUNT = 10_000
ARITIES = (1, 2, 3)


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``CliError``, so ``main`` prints one line."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def map_fixture(name: str):
    """Named base maps for `check`: group convolutions and products,
    plus the derivation candidates as raw trilinear tensors."""
    if name.endswith("-conv") and name[:-5] in GROUP_FIXTURES:
        return group_algebra(cayley_fixture(name[:-5]))[1]
    if name.endswith("-pi") and name[:-3] in GROUP_FIXTURES:
        return group_algebra(cayley_fixture(name[:-3]))[0].multiplication
    if name in DERIVATION_FIXTURES:
        return derivation_fixture(name).tri_map
    known = [g + "-conv" for g in GROUP_FIXTURES]
    known += [g + "-pi" for g in GROUP_FIXTURES]
    known += list(DERIVATION_FIXTURES)
    raise CliError(f"unknown fixture {name!r}; known: {', '.join(sorted(set(known)))}")


def _parse_dims(text: str, *, exact: int | None = None) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"bad --dims value {text!r}; expected comma-separated integers")
    if exact is not None and len(dims) != exact:
        raise CliError(f"--dims needs exactly {exact} entries, got {len(dims)}")
    if not 2 <= len(dims) <= 4:
        raise CliError("--dims needs 2 to 4 entries (input dims then codomain dim)")
    for d in dims:
        if not 1 <= d <= MAX_DIM:
            raise CliError(f"dimension {d} outside [1, {MAX_DIM}]")
    return dims


def _cmd_parse(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    sig = signature_of(expr, base_signature(args.arity))
    print(expr.render())
    print(sig.render())
    return PASS


def _cmd_classify(args: argparse.Namespace) -> int:
    print(classify_text(args.expr1, args.expr2, base_arity=args.arity).render())
    return PASS


def _cmd_check(args: argparse.Namespace) -> int:
    e1, e2 = parse(args.expr1), parse(args.expr2)
    if args.map and args.fixture:
        raise CliError("choose either --map or --fixture, not both")
    if args.map:
        if len(args.map) > 2:
            raise CliError("at most two --map files (left and right base maps)")
        maps = [load_map(path) for path in args.map]
        left_base, right_base = maps[0], maps[-1]
    elif args.fixture:
        left_base = right_base = map_fixture(args.fixture)
    else:
        dims = _parse_dims(args.dims)
        left_base = right_base = random_map(
            len(dims) - 1, dims[:-1], dims[-1], seed=args.seed
        )
    report = equal(realize(e1, left_base), realize(e2, right_base))
    print(report.render())
    return PASS if report.equal else IDENTITY_FAILED


def _cmd_report(args: argparse.Namespace) -> int:
    for flag, count in (("--trials", args.trials), ("--instances", args.instances)):
        if not 1 <= count <= MAX_COUNT:
            raise CliError(f"{flag} {count} outside [1, {MAX_COUNT}]")
    dims = _parse_dims(args.dims, exact=4)
    fixtures = tuple(args.fixture) if args.fixture else GROUP_FIXTURES
    for name in fixtures:
        if name not in GROUP_FIXTURES:
            raise CliError(
                f"unknown group fixture {name!r}; known: {', '.join(GROUP_FIXTURES)}"
            )
    sections = full_suite(
        seed=args.seed,
        trials=args.trials,
        instances=args.instances,
        dims=dims,
        fixtures=fixtures,
    )
    config = (
        f"Configuration: seed={args.seed}, trials={args.trials}, "
        f"instances={args.instances}, dims={'x'.join(str(d) for d in dims[:-1])}"
        f"->{dims[-1]}, fixtures={','.join(fixtures)}."
    )
    text = render_report(sections, config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return PASS if all(ok for _, rows in sections for _, ok, _ in rows) else IDENTITY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arens",
        description="Adjoint and flip calculus for bounded multilinear maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="render an expression and its signature")
    p_parse.add_argument("expr")
    p_parse.add_argument("--arity", type=int, choices=ARITIES, default=3)
    p_parse.set_defaults(run=_cmd_parse)

    p_cls = sub.add_parser("classify", help="symbolic equality verdict")
    p_cls.add_argument("expr1")
    p_cls.add_argument("expr2")
    p_cls.add_argument("--arity", type=int, choices=ARITIES, default=3)
    p_cls.set_defaults(run=_cmd_classify)

    p_chk = sub.add_parser("check", help="numeric identity check on a base map")
    p_chk.add_argument("expr1")
    p_chk.add_argument("expr2")
    p_chk.add_argument(
        "--map",
        action="append",
        metavar="FILE",
        help="tensor JSON file; twice to compare across two maps",
    )
    p_chk.add_argument("--fixture", help="named base map, e.g. z3-conv")
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument(
        "--dims",
        default="2,2,2,2",
        help="input dims then codomain dim for the random base map",
    )
    p_chk.set_defaults(run=_cmd_check)

    p_rep = sub.add_parser("report", help="run the full verification suite")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--trials", type=int, default=100)
    p_rep.add_argument("--instances", type=int, default=25)
    p_rep.add_argument("--dims", default="2,2,2,2")
    p_rep.add_argument(
        "--fixture",
        action="append",
        help="group fixture to include (repeatable); default all",
    )
    p_rep.add_argument("--out", help="write the markdown report here")
    p_rep.set_defaults(run=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except CliError as exc:
        message = str(exc)
    except (
        ExprError, DimensionMismatch, ShapeMismatch, InvalidAlgebra, InvalidCayleyTable,
        OSError, KeyError, ValueError, TypeError, RuntimeError, MemoryError,
    ) as exc:
        # malformed JSON raises ValueError, deep nesting RecursionError, a huge input MemoryError
        message = type(exc).__name__ + (f": {exc}" if str(exc) else "")
    # one line, though a map's name or a path may hold line breaks
    print("error:", " ".join(message.splitlines()), file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
