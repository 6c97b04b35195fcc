"""Fixture: undefined-name violations the rule must reject (6 seeded)."""

from __future__ import annotations

from repro.core.gqa import with_kv_heads


def plan(config, shards):
    # A call left behind after its function was deleted.
    return with_kv_heads(config, 2), partition_kv_heads(config.n_kv_heads, shards)


class Executor:
    RUNWAY = 6

    def window(self, workers):
        # Class-body names are not visible inside methods.
        return workers + RUNWAY


def last_square(values):
    squares = [v * v for v in values]
    # A comprehension variable does not leak.
    return squares[-1], v


def describe(cache: "KVCache | None") -> str:
    # A quoted annotation naming something never imported.
    return str(cache)


def typo(total):
    count = 0
    for item in range(total):
        count += item
    return cuont


def nested():
    def inner():
        return outer_only

    return inner
