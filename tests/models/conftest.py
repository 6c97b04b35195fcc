"""Shared fixtures for the model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import tensor_ops


class SlabSpy:
    """Stands in for numpy inside :mod:`repro.models.tensor_ops`.

    ``slab_matmul`` spells its one-call path ``x @ w``, so the only
    ``np.matmul`` in the module is a row slab: :attr:`slabs` records the
    weight operand of each one, whoever called the primitive.
    ``np.empty`` (the slab scratch) comes back NaN-filled, so a slab
    that fails to write its product cannot pass for one.
    """

    def __init__(self) -> None:
        self.slabs: list[np.ndarray] = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, w, **kwargs):
        self.slabs.append(w)
        return np.matmul(x, w, **kwargs)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        out.fill(np.nan)
        return out


@pytest.fixture
def slab_spy(monkeypatch):
    spy = SlabSpy()
    monkeypatch.setattr(tensor_ops, "np", spy)
    return spy
