"""One entry of a fixture changed by a small nonzero rational, or none.

The structure-law and slot-identity tests feed fixtures perturbed this
way to the tensor equations and to their basis-scan references, which
must then agree on the first failing tuple.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from arenscalc.tensor import MultiMap

DELTAS = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


def perturbed_entries(data, entries) -> tuple:
    """``entries`` with the drawn position (-1: none) shifted by a drawn delta."""
    pos = data.draw(st.integers(-1, len(entries) - 1), label="perturbed position")
    if pos < 0:
        return tuple(entries)
    out = list(entries)
    out[pos] += data.draw(DELTAS, label="delta")
    return tuple(out)


def perturb(data, m: MultiMap) -> MultiMap:
    """``m`` with its entries perturbed, built through the checking constructor."""
    return MultiMap(
        m.name, m.arity, m.input_dims, m.codomain_dim, m.axis_labels,
        perturbed_entries(data, m.entries),
    )
