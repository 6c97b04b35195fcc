"""The project-specific invariant checkers.

Each rule turns one documented contract (locking discipline, durability
ordering, hot-path allocation budget, failure visibility, export
surface, import hygiene) into an AST check; :data:`default_rules` is the
set the CLI and the CI gate run.
"""

from repro.lint.rules.api_surface import ApiSurfaceRule
from repro.lint.rules.commit_point import CommitPointRule
from repro.lint.rules.exception_safety import ExceptionSafetyRule
from repro.lint.rules.frontend_api import FrontendApiRule
from repro.lint.rules.guarded_by import GuardedByRule
from repro.lint.rules.hot_path import HotPathRule
from repro.lint.rules.unused_import import UnusedImportRule

__all__ = [
    "ApiSurfaceRule",
    "CommitPointRule",
    "ExceptionSafetyRule",
    "FrontendApiRule",
    "GuardedByRule",
    "HotPathRule",
    "UnusedImportRule",
    "default_rules",
]


def default_rules() -> list:
    """Fresh instances of every registered rule, in reporting order."""
    return [
        GuardedByRule(),
        CommitPointRule(),
        HotPathRule(),
        ExceptionSafetyRule(),
        ApiSurfaceRule(),
        FrontendApiRule(),
        UnusedImportRule(),
    ]
