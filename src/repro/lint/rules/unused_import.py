"""Rule ``unused-import``: every module-level import is used.

The pyflakes check (F401) CI's ruff runs, done from the AST so a local
``scripts/check.sh`` without ruff catches it too: moving a call from one
module to another is exactly the edit that leaves its import behind.  A
name bound by a module-level ``import`` / ``from ... import`` must be
referenced somewhere in the module — as a name, the root of an attribute
chain, or inside a string annotation — or be exported:

- listed in the module's ``__all__``;
- imported by a package ``__init__.py`` (a re-export by construction);
- marked ``# noqa: F401`` (or a bare ``# noqa``) on the import's line.

``from __future__`` and star imports bind nothing checkable and are
skipped; imports inside functions are the function's business.
"""

from __future__ import annotations

import ast
import re

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule

#: ``# noqa`` (blanket) or ``# noqa: F401, E402`` (codes), as ruff reads it.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:[\s,]+[A-Z]+[0-9]+)*))?")


def _module_imports(body: list[ast.stmt]) -> list[tuple[str, ast.alias, ast.stmt]]:
    """``(bound name, alias, statement)`` for every module-level import.

    Descends into top-level ``if`` / ``try`` blocks (``TYPE_CHECKING``
    guards, optional-dependency fallbacks) but not into defs or classes.
    """
    found: list[tuple[str, ast.alias, ast.stmt]] = []
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                found.append((alias.asname or alias.name.split(".")[0], alias, stmt))
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name != "*":
                    found.append((alias.asname or alias.name, alias, stmt))
        elif isinstance(stmt, ast.If):
            found.extend(_module_imports(stmt.body + stmt.orelse))
        elif isinstance(stmt, ast.Try):
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            for handler in stmt.handlers:
                blocks += handler.body
            found.extend(_module_imports(blocks))
    return found


def _string_annotation_names(node: ast.expr) -> set[str]:
    """Names inside the quoted parts of an annotation (``"np.ndarray"``)."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _string_annotation_names(node.annotation)
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            if isinstance(stmt.value, (ast.List, ast.Tuple)):
                return {
                    elt.value
                    for elt in stmt.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
    return set()


def _noqa_f401(comment: str) -> bool:
    match = _NOQA_RE.search(comment)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in re.split(r"[\s,]+", codes)


class UnusedImportRule(Rule):
    name = "unused-import"
    description = (
        "module-level imports must be referenced, exported via __all__, "
        "re-exported by a package __init__, or marked # noqa: F401"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if module.posix_path.rsplit("/", 1)[-1] == "__init__.py":
            return []
        used = _referenced_names(module.tree) | _exported_names(module.tree)
        findings: list[Finding] = []
        for bound, alias, stmt in _module_imports(module.tree.body):
            if bound in used:
                continue
            if _noqa_f401(module.comment_on(alias.lineno)) or _noqa_f401(
                module.comment_on(stmt.lineno)
            ):
                continue
            findings.append(
                self.finding(
                    module,
                    alias,
                    f"{bound!r} is imported but never used",
                    hint="delete the import; if it is a deliberate "
                    "re-export, list it in __all__ or mark it "
                    "`# noqa: F401`",
                )
            )
        return findings
