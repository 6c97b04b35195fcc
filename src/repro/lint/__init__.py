"""``repro.lint`` — AST-based checker for this repo's load-bearing invariants.

The codebase accumulates contracts that tests cannot reliably enforce: a
missed lock only fails under rare interleavings, a reordered journal
append only loses data when a crash lands between two lines, a stray
``.copy()`` on the decode path only shows up as bench drift.  This
package turns each documented contract into a static rule and runs as a
zero-findings gate in ``scripts/check.sh`` and CI::

    python -m repro.lint [paths...]     # default: src

Rules (see ``docs/ARCHITECTURE.md`` "Enforced invariants" for the
design contract behind each):

- ``guarded-by`` — ``# guarded-by: <lock>``-annotated attributes are
  only touched under ``with self.<lock>:``.
- ``commit-point`` — journal 'chunk'/'seal' records follow the device
  write on every path; 'free' records precede their deletions.
- ``hot-path`` — functions in ``repro/lint/hotpaths.py`` perform no
  per-call allocations (concatenate/copy/list-growth) and read no clock.
- ``exception-safety`` — no bare/BaseException handlers outside waived
  drain paths; ``time.sleep`` only in the latency emulator.
- ``api-surface`` — every ``__all__`` matches the module's public
  bindings.
- ``frontend-api`` — the serving front-end ``__all__`` is pinned to an
  explicit surface.
- ``unused-import`` — every module-level import is referenced, exported
  via ``__all__``, re-exported by a package ``__init__`` or marked
  ``# noqa: F401`` (pyflakes F401, without ruff).
- ``undefined-name`` — every loaded name is bound in a visible scope,
  imported or a builtin (pyflakes F821, without ruff).

Deliberate exceptions are waived in place, with a mandatory reason::

    # lint: disable=<rule> -- <why this is safe>
"""

from repro.lint.findings import Finding
from repro.lint.framework import (
    ModuleInfo,
    Rule,
    Waiver,
    check_module,
    check_paths,
    collect_files,
    load_module,
)
from repro.lint.hotpaths import HOT_PATHS
from repro.lint.rules import (
    ApiSurfaceRule,
    CommitPointRule,
    ExceptionSafetyRule,
    FrontendApiRule,
    GuardedByRule,
    HotPathRule,
    UndefinedNameRule,
    UnusedImportRule,
    default_rules,
)

__all__ = [
    "HOT_PATHS",
    "ApiSurfaceRule",
    "CommitPointRule",
    "ExceptionSafetyRule",
    "Finding",
    "FrontendApiRule",
    "GuardedByRule",
    "HotPathRule",
    "ModuleInfo",
    "Rule",
    "UndefinedNameRule",
    "UnusedImportRule",
    "Waiver",
    "check_module",
    "check_paths",
    "collect_files",
    "default_rules",
    "load_module",
]
