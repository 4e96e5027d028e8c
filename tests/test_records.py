"""The package's records: field order, defaults, repr and immutability.

``MultiMap`` is the only dataclass; every other record is an immutable
tuple subclass that must read, print and refuse assignment as before.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys

import pytest

import arenscalc.cli  # noqa: F401  (loads every module of the package)
from arenscalc.algebra import AlgebraModel, BanachModuleModel, CayleyTable, truncated_poly_algebra
from arenscalc.derivation import DerivationReport, TriDerivationCandidate, derivation_fixture
from arenscalc.expr import ExprAst, Signature, SpaceRef
from arenscalc.semantics import AxisAssignment, Verdict
from arenscalc.tensor import IdentityReport, MultiMap


def test_multimap_is_the_only_dataclass():
    found = {
        cls
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "arenscalc"
        for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    }
    assert found == {MultiMap}


_ALGEBRA, _ = truncated_poly_algebra(2)
_CANDIDATE = derivation_fixture("zero")

# (record class, positional arguments, field names in order)
RECORDS = [
    (ExprAst, ("f", ("*", "r")), ("base", "ops")),
    (SpaceRef, ("X", 2), ("base", "level")),
    (Signature, ((SpaceRef("X"),), SpaceRef("Y", 1)), ("inputs", "codomain")),
    (AxisAssignment, (("in1", "out"), (1, 1), "in2", 1),
     ("slot_axes", "slot_levels", "codomain_axis", "codomain_level")),
    (Verdict, ("EQUAL-IFF", "close-to-regular(f)", {"reason": "r"}),
     ("kind", "condition", "witness")),
    (IdentityReport, ("f", "g", False, ((0, 1), "1", "2")),
     ("left_name", "right_name", "equal", "first_mismatch")),
    (CayleyTable, (2, ((0, 1), (1, 0)), 0), ("order", "table", "identity")),
    (AlgebraModel, (2, _ALGEBRA.multiplication, _ALGEBRA.unit, _ALGEBRA.basis_names),
     ("dim", "multiplication", "unit", "basis_names")),
    (BanachModuleModel, (_ALGEBRA, 2, _ALGEBRA.multiplication, _ALGEBRA.multiplication),
     ("algebra", "carrier_dim", "left_action", "right_action")),
    (TriDerivationCandidate, ("zero", _CANDIDATE.tri_map, _CANDIDATE.module),
     ("name", "tri_map", "module")),
    (DerivationReport, (None, (0, 1, 0, 1), None), ("first_slot", "middle_slot", "last_slot")),
]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_order_repr_and_immutability(cls, args, fields):
    rec = cls(*args)
    assert [getattr(rec, k) for k in fields] == list(args)
    assert rec == cls(**dict(zip(fields, args)))
    shown = ", ".join(f"{k}={v!r}" for k, v in zip(fields, args))
    assert repr(rec) == f"{cls.__name__}({shown})"
    for k in fields:
        with pytest.raises(AttributeError):
            setattr(rec, k, None)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_records_keep_their_defaults():
    assert ExprAst("f").ops == ()
    assert SpaceRef("X").level == 0
    assert IdentityReport("f", "g", True).first_mismatch is None
    assert Verdict("DISTINCT").condition is None
    assert repr(ExprAst("f")) == "ExprAst(base='f', ops=())"
    assert repr(Signature((SpaceRef("X"),), SpaceRef("Y"))) == (
        "Signature(inputs=(SpaceRef(base='X', level=0),), codomain=SpaceRef(base='Y', level=0))"
    )
    assert DerivationReport(None, None, None).holds
    assert not DerivationReport(None, (0, 0, 0, 0), None).holds


def test_verdicts_built_without_a_witness_do_not_share_one():
    a, b = Verdict("DISTINCT"), Verdict("UNCOND-EQUAL")
    assert a.witness == {} and b.witness == {}
    assert repr(a) == "Verdict(kind='DISTINCT', condition=None, witness={})"
    a.witness["reason"] = "set on one verdict"
    assert b.witness == {} and Verdict("DISTINCT").witness == {}
