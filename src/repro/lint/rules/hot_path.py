"""Rule ``hot-path``: no allocation regressions or clock reads in manifest functions.

PR 1 removed every O(history) allocation from the save/decode hot path
(capacity-doubling buffers, zero-copy views, ``out=`` GEMMs); PR 2 did
the same for the streamed restore projection.  The regressions that
would undo it are syntactically recognizable, and this rule bans them
inside every function listed in :mod:`repro.lint.hotpaths`:

- ``np.concatenate`` / ``np.vstack`` / ``np.hstack`` — the O(n) copy per
  step that made decode O(n^2) pre-PR 1.
- ``.copy()`` — a fresh allocation per call of a per-token function.
- ``np.ascontiguousarray`` — a hidden conditional copy; hot paths must
  arrange layout so it is never needed.
- Appending to a locally created list inside a loop — the
  accumulate-then-concatenate pattern (list growth is O(n) *and* the
  parts get copied again downstream).
- Clock reads — ``perf_counter()``, ``monotonic()``,
  ``time.perf_counter()`` / ``time.time()`` / ``time.monotonic()``.
  In-band timing threads ``if timed:`` branches and stats records
  through the kernels; a hot function is timed from outside (a wrapper
  span around the call) or through the devices' and IO pool's counters.

An intentional small allocation (e.g. copying a ``(B,)`` index vector,
not an O(tokens) tensor) is waived in place with
``# lint: disable=hot-path -- <why it is O(1) per call>``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule
from repro.lint.hotpaths import HOT_PATHS

_BANNED_NP_CALLS = {"concatenate", "vstack", "hstack", "ascontiguousarray"}
_NP_MODULE_NAMES = {"np", "numpy"}
#: Clocks read as ``time.<name>()`` and, imported bare, as ``<name>()``.
_TIME_CLOCKS = {"perf_counter", "time", "monotonic"}
_BARE_CLOCKS = {"perf_counter", "monotonic"}


def _banned_call_name(call: ast.Call) -> str | None:
    """The banned operation a call performs, if any."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if (
            func.attr in _BANNED_NP_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in _NP_MODULE_NAMES
        ):
            return f"{func.value.id}.{func.attr}"
        if func.attr == "copy" and not call.args and not call.keywords:
            return ".copy()"
    elif isinstance(func, ast.Name) and func.id in _BANNED_NP_CALLS:
        return func.id
    return None


def _clock_call_name(call: ast.Call) -> str | None:
    """The clock a call reads, if any."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _TIME_CLOCKS
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return f"time.{func.attr}()"
    if isinstance(func, ast.Name) and func.id in _BARE_CLOCKS:
        return f"{func.id}()"
    return None


class HotPathRule(Rule):
    name = "hot-path"
    description = (
        "functions in repro/lint/hotpaths.py may not concatenate/copy/"
        "ascontiguousarray, grow lists in loops or read the clock"
    )

    def __init__(self, manifest: dict[str, frozenset[str]] | None = None) -> None:
        self.manifest = HOT_PATHS if manifest is None else manifest

    def _manifest_for(self, module: ModuleInfo) -> frozenset[str] | None:
        for suffix, names in self.manifest.items():
            if module.posix_path.endswith(suffix):
                return names
        return None

    def check(self, module: ModuleInfo) -> list[Finding]:
        names = self._manifest_for(module)
        if not names:
            return []
        findings: list[Finding] = []
        seen: set[str] = set()
        self._walk_scope(module.tree.body, "", names, seen, findings, module)
        for missing in sorted(names - seen):
            findings.append(
                Finding(
                    module.path,
                    1,
                    0,
                    self.name,
                    f"hot-path manifest names {missing!r} but this module does "
                    f"not define it",
                    hint="update repro/lint/hotpaths.py when hot-path "
                    "functions move or are renamed",
                )
            )
        return findings

    def _walk_scope(
        self,
        body: list[ast.stmt],
        prefix: str,
        names: frozenset[str],
        seen: set[str],
        findings: list[Finding],
        module: ModuleInfo,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                self._walk_scope(
                    stmt.body, f"{prefix}{stmt.name}.", names, seen, findings, module
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                if qualname in names:
                    seen.add(qualname)
                    self._check_function(module, qualname, stmt, findings)
                else:
                    # Nested defs inside a non-hot function may still be
                    # listed individually; keep walking.
                    self._walk_scope(
                        stmt.body,
                        f"{qualname}.",
                        names,
                        seen,
                        findings,
                        module,
                    )

    def _check_function(
        self,
        module: ModuleInfo,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        local_lists = self._locally_created_lists(func)
        # Nested helpers (e.g. the manager's flush_chunk closure) run on
        # the same hot path: the whole lexical body is in scope.
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                banned = _banned_call_name(node)
                if banned is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{qualname} is a hot-path function but calls "
                            f"{banned} — an allocation per call",
                            hint="write into a preallocated destination "
                            "(out=, slice assignment, install_view)",
                        )
                    )
                clock = _clock_call_name(node)
                if clock is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{qualname} is a hot-path function but reads the "
                            f"clock ({clock}) — in-band timing",
                            hint="time the call from outside (a wrapper span) "
                            "or read the devices' / IO pool's counters",
                        )
                    )
        # Nested loops would double-report an append; dedupe by location.
        loop_appends: dict[tuple[int, int], ast.Call] = {}
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "append"
                        and isinstance(inner.func.value, ast.Name)
                        and inner.func.value.id in local_lists
                    ):
                        loop_appends[(inner.lineno, inner.col_offset)] = inner
        for inner in loop_appends.values():
            findings.append(
                self.finding(
                    module,
                    inner,
                    f"{qualname} grows list {inner.func.value.id!r} inside a "
                    f"loop — the accumulate-then-concatenate pattern the hot "
                    f"path must not reintroduce",
                    hint="preallocate the destination and assign into slices",
                )
            )

    @staticmethod
    def _locally_created_lists(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        """Names bound to a fresh list (``x = []`` / ``x = list()``)."""
        names: set[str] = set()
        for node in ast.walk(func):
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            is_list = isinstance(value, ast.List) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "list"
                and not value.args
            )
            if not is_list:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names
