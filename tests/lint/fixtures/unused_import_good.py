"""Fixture: every module-level import is used, exported or marked."""

from __future__ import annotations

import os.path
from collections import OrderedDict
from json import dumps as to_json
from math import sqrt  # noqa: F401, E501
from math import (
    pi,  # noqa: F401
)
from string import ascii_letters  # noqa
from typing import TYPE_CHECKING

import numpy

if TYPE_CHECKING:
    from pathlib import Path

try:
    import tomllib
except ImportError:
    tomllib = None

__all__ = ["OrderedDict", "describe"]


def describe(path: "Path", values: "numpy.ndarray") -> str:
    """Names used only inside quoted annotations count as used."""
    return to_json(
        {"base": os.path.basename(str(path)), "n": len(values), "toml": tomllib is not None}
    )
