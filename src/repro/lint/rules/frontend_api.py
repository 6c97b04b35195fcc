"""Rule ``frontend-api``: the serving front end's two surfaces stay pinned.

PR 10 redesigned the engine entry points around ``submit``/``step``/
``stream``.  The typed surface growing (or shrinking) ad hoc would
silently undo that redesign — so the ``__all__`` of
:mod:`repro.engine.api` and :mod:`repro.engine.frontend` is pinned to an
explicit expected list here; additions must edit this rule in the same
change, making surface growth a reviewed decision.

The other surface is the engine seam: the one serving loop reaches what
executes it only through :class:`repro.engine.api.ServingEngine`, so
:mod:`repro.engine.frontend` importing from the packages behind that
seam (:data:`SEALED_PACKAGES`) is a finding too.
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
        "ServingEngine",
        "ServingRequest",
        "ServingResponse",
    ),
    "repro/engine/frontend.py": (
        "RequestHandle",
        "ServingFrontend",
        "pool_admission_gate",
    ),
}


#: Packages behind the engine seam, which the loop module must not import.
SEAM_MODULE = "repro/engine/frontend.py"
SEALED_PACKAGES = ("repro.core", "repro.runtime", "repro.models")


def _sealed_imports(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Every import statement (anywhere in the module) that reaches a
    sealed package, with the first sealed name it binds."""
    found = []
    for node in ast.walk(tree):
        names: list[str] = []
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import core`` reaches it as surely as
            # ``from repro.core import hcache``.
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        sealed = [
            name
            for name in names
            if any(name == p or name.startswith(p + ".") for p in SEALED_PACKAGES)
        ]
        if sealed:
            found.append((node, sealed[0]))
    return found


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
        findings = []
        if module.posix_path.endswith(SEAM_MODULE):
            findings = [
                self.finding(
                    module,
                    node,
                    f"the serving loop imports {name}, which sits behind "
                    "the engine seam",
                    hint="ask the engine through repro.engine.api.ServingEngine; "
                    "if the loop really needs something new, add it to the seam",
                )
                for node, name in _sealed_imports(module.tree)
            ]
        declared = _literal_all(module.tree)
        if declared is None:
            return findings + [
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
            return findings + [
                self.finding(
                    module,
                    assignment,
                    f"__all__ drifted from the pinned front-end surface ({detail})",
                    hint="changing the serving API surface is deliberate: "
                    "update PINNED_SURFACES in repro/lint/rules/frontend_api.py "
                    "in the same change",
                )
            ]
        return findings
