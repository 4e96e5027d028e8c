from __future__ import annotations

import dataclasses

import pytest

import arenscalc.tensor as tensor_module


@pytest.fixture
def perturb_realized(monkeypatch):
    """Call with realized names such as ``"f^{s****t}"``: from then on,
    every realization of one of those names comes back with 1 added to
    its entry 0.  ``realize`` names its result when it calls
    ``transpose``, so the patch holds whichever module called it."""

    def install(*names):
        real = tensor_module.transpose

        def transpose(m, new_axes, name=None, labels=None):
            out = real(m, new_axes, name=name, labels=labels)
            if name in names:
                out = dataclasses.replace(out, entries=(out.entries[0] + 1,) + out.entries[1:])
            return out

        monkeypatch.setattr(tensor_module, "transpose", transpose)

    return install
