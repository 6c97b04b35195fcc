"""Fixture: every loaded name resolves, through each binding form."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Literal

if TYPE_CHECKING:
    from pathlib import Path

try:
    import tomllib
except ImportError:
    tomllib = None

COUNTER = 0


def bump() -> int:
    global COUNTER, CREATED_LATER
    COUNTER += 1
    CREATED_LATER = COUNTER
    return late_binding()


def late_binding() -> int:
    # Module globals bound below the use still resolve at call time.
    return DEFINED_BELOW + CREATED_LATER


DEFINED_BELOW = 1


def closure(start: int):
    total = start

    def add(step: int = COUNTER) -> int:
        nonlocal total
        total += step
        return total

    return add


def walrus(values: list[int]) -> int:
    # A walrus target binds in the enclosing function, not the comprehension.
    if any((hit := v) > 2 for v in values):
        return hit
    return 0


def handlers(path: "Path", mode: Literal["fast", "slow"]) -> str:
    try:
        with open(os.path.join(str(path), mode)) as handle:
            return handle.read()
    except OSError as exc:
        return str(exc) + str(tomllib is None)


def unpack(pairs: dict[str, "Path"]) -> list:
    first, *rest = sorted(pairs)
    return [first, *rest, *(lambda x, *ys, k=1, **kw: (x, ys, k, kw))(1)]


class Config:
    NAMES = ("a", "b")
    # The first iterable of a class-body comprehension sees class names.
    UPPER = [name.upper() for name in NAMES]
    KEYS = {name: index for index, name in enumerate(NAMES)}

    def __init__(self, scale: int = len(NAMES)) -> None:
        self.scale = scale
        self.module = __name__

    @property
    def size(self) -> int:
        return self.scale

    @size.setter
    def size(self, value: int) -> None:
        self.scale = value

    def parent(self) -> str:
        return super().__repr__() + __class__.__name__


def shapes(command: object) -> str:
    match command:
        case {"op": op, **extra}:
            return f"{op}{extra}"
        case [first, *others]:
            return f"{first}{others}"
        case str() as text:
            return text
    return __file__


async def gather(items):
    return [item async for item in items]
