"""The test oracle stays independent of the kernels it checks.

``tests/oracle.py`` is read with ``ast``, not imported.  It may import no
private name of the package and read no private attribute; it may not
name a kernel that its references restate; and each step-by-step path it
keeps is named only by the one function that uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ORACLE = Path(__file__).with_name("oracle.py")
KERNELS = {"transpose", "compose_into_slot", "compose_codomain", "slice_slot", "equal"}
STEP_BY_STEP = {"adjoint": "fold", "flip": "fold", "evaluate": "nested_scan"}


def _breaches(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("arenscalc")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arenscalc"):
            imported.update((a.asname or a.name, a.name) for a in node.names)
    found += [f"imports {name}" for name in imported.values()
              if name.startswith("_") or name in KERNELS or name == "*"]
    for stmt in tree.body:  # every name read, by the top-level function reading it
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                name = node.attr
                if name.startswith("_") and not name.startswith("__"):
                    found.append(f"{owner} reads .{name}")
            elif isinstance(node, ast.Name):
                name = imported.get(node.id, node.id)
            else:
                continue
            if name in KERNELS or STEP_BY_STEP.get(name, owner) != owner:
                found.append(f"{owner} names {name}")
    return found


def test_the_oracle_names_no_kernel_it_checks_and_no_private_name():
    assert _breaches(ORACLE.read_text()) == []


def test_each_breach_of_independence_is_found():
    uses = {
        "from arenscalc.tensor import _permute": ["imports _permute"],
        "from arenscalc.tensor import transpose as t": ["imports transpose"],
        "import arenscalc.tensor": ["import arenscalc.tensor"],
        "def f(m):\n    return tensor._contract_last(m)": ["f reads ._contract_last"],
        "def f(m):\n    return tensor.equal(m, m)": ["f names equal"],
        "def fold(m):\n    return evaluate(m, ())": ["fold names evaluate"],
        "def nested_scan(m):\n    return flip(m, 't')": ["nested_scan names flip"],
        "def fold(m):\n    return adjoint(flip(m, 't'))": [],
    }
    for source, want in uses.items():
        assert _breaches(source) == want, source
