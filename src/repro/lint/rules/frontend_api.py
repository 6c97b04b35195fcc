"""Rule ``frontend-api``: the serving front-end surface stays pinned.

PR 10 redesigned the engine entry points around ``submit``/``step``/
``stream``.  The typed surface growing (or shrinking) ad hoc would
silently undo that redesign — so the ``__all__`` of
:mod:`repro.engine.api` and :mod:`repro.engine.frontend` is pinned to an
explicit expected list here; additions must edit this rule in the same
change, making surface growth a reviewed decision.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule

#: Pinned ``__all__`` per module (posix path suffix -> exact surface).
PINNED_SURFACES: dict[str, tuple[str, ...]] = {
    "repro/engine/api.py": (
        "IterationResult",
        "IterationStats",
        "ServingRequest",
        "ServingResponse",
    ),
    "repro/engine/frontend.py": (
        "RequestHandle",
        "ServingFrontend",
        "pool_admission_gate",
    ),
}


def _literal_all(tree: ast.Module) -> tuple[ast.Assign, list[str]] | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if not isinstance(stmt.value, (ast.List, ast.Tuple)):
                        return stmt, []
                    names = [
                        element.value
                        for element in stmt.value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    ]
                    return stmt, names
    return None


class FrontendApiRule(Rule):
    name = "frontend-api"
    description = "the serving front-end __all__ is pinned"

    def check(self, module: ModuleInfo) -> list[Finding]:
        expected = None
        for suffix, surface in PINNED_SURFACES.items():
            if module.posix_path.endswith(suffix):
                expected = surface
                break
        if expected is None:
            return []
        declared = _literal_all(module.tree)
        if declared is None:
            return [
                self.finding(
                    module,
                    module.tree,
                    "front-end module must declare the pinned __all__ "
                    f"({', '.join(expected)})",
                    hint="the typed serving surface is an explicit contract; "
                    "declare __all__ with exactly the pinned names",
                )
            ]
        assignment, names = declared
        if sorted(names) != sorted(expected):
            extra = sorted(set(names) - set(expected))
            missing = sorted(set(expected) - set(names))
            detail = "; ".join(
                part
                for part in (
                    f"unexpected: {', '.join(extra)}" if extra else "",
                    f"missing: {', '.join(missing)}" if missing else "",
                )
                if part
            )
            return [
                self.finding(
                    module,
                    assignment,
                    f"__all__ drifted from the pinned front-end surface ({detail})",
                    hint="changing the serving API surface is deliberate: "
                    "update PINNED_SURFACES in repro/lint/rules/frontend_api.py "
                    "in the same change",
                )
            ]
        return []
