"""Fixture: unused-import violations the rule must reject (5 seeded)."""

from __future__ import annotations

import json
import os.path
from collections import OrderedDict, deque
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pathlib import Path

from math import sqrt as root  # noqa: E402


def wrap(x: np.ndarray) -> deque:
    return deque([x])
