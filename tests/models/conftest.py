"""Shared fixtures for the model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import tensor_ops


class PanelSpy:
    """Stands in for numpy inside :mod:`repro.models.tensor_ops`.

    ``panelled_matmul`` spells its one-call path ``x @ w``, so the only
    ``np.matmul`` in the module is a column panel: :attr:`panels` counts
    them, whoever called the primitive.  ``np.empty`` (its output buffer)
    comes back NaN-filled, so a column no panel writes cannot pass for a
    product.
    """

    def __init__(self) -> None:
        self.panels = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.panels += 1
        return np.matmul(*args, **kwargs)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        out.fill(np.nan)
        return out


@pytest.fixture
def panel_spy(monkeypatch):
    spy = PanelSpy()
    monkeypatch.setattr(tensor_ops, "np", spy)
    return spy
