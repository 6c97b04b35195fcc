"""Rule ``undefined-name``: every name a module loads is bound somewhere.

The pyflakes check (F821) CI's ruff runs, done from the AST so a local
``scripts/check.sh`` without ruff catches it too: deleting a function
leaves its callers behind, and a caller in a module no test imports only
fails once it runs.  A loaded name must be bound in its own scope, in an
enclosing function or comprehension scope, at module level, or be a
builtin.  Scoping follows Python's rules where they decide the answer:

- a class body's names are invisible to its methods and comprehensions;
- a comprehension's variables are invisible after it, except a walrus
  target, which binds in the enclosing function;
- decorators, defaults, bases and annotations evaluate in the enclosing
  scope;
- quoted annotations (``"KVCache | None"``) are checked like code, except
  inside ``Literal[...]``.

Binding order is not checked: a name bound anywhere in a visible scope
counts (so late-bound module globals and conditional imports pass).  A
module with a star import is skipped, since it binds names nobody can
list.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule

#: Builtins plus the dunders the interpreter binds in every module (and
#: ``__class__``, which it binds in every method that needs it).
_BUILTINS = frozenset(dir(builtins)) | {
    f"__{name}__"
    for name in ("builtins", "class", "file", "loader", "name", "package", "path", "spec")
}


@dataclass
class _Scope:
    kind: str  # "module" | "function" | "class" | "comprehension"
    parent: "_Scope | None"
    bound: set[str] = field(default_factory=set)
    loads: list[tuple[str, ast.AST]] = field(default_factory=list)

    def resolves(self, name: str) -> bool:
        """Whether ``name`` is visible here; class scopes do not nest."""
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bound and (scope is self or scope.kind != "class"):
                return True
            scope = scope.parent
        return name in _BUILTINS


class _ScopeBuilder(ast.NodeVisitor):
    """One pass over a module: every scope's bindings and loaded names."""

    def __init__(self) -> None:
        self.module = _Scope("module", None)
        self.scope = self.module
        self.scopes = [self.module]
        self.star_import = False

    def _enter(self, kind: str, bound: set[str], nodes: list) -> None:
        outer = self.scope
        self.scope = _Scope(kind, outer, bound)
        self.scopes.append(self.scope)
        for node in nodes:
            self.visit(node)
        self.scope = outer

    # -- bindings and loads ---------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.scope.loads.append((node.id, node))
        else:
            self.scope.bound.add(node.id)

    def visit_Import(self, node: ast.Import | ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "*":
                self.star_import = True
            elif isinstance(node, ast.Import):
                self.scope.bound.add(alias.asname or alias.name.split(".")[0])
            else:
                self.scope.bound.add(alias.asname or alias.name)

    visit_ImportFrom = visit_Import

    def visit_Global(self, node: ast.Global | ast.Nonlocal) -> None:
        if isinstance(node, ast.Global):
            self.module.bound.update(node.names)
        self.scope.bound.update(node.names)

    visit_Nonlocal = visit_Global

    def _bind_as(self, node: ast.AST) -> None:
        # `except E as name`, and the match captures `p as name`,
        # `[*name]` and `{**name}`.
        for name in (getattr(node, "name", None), getattr(node, "rest", None)):
            if name:
                self.scope.bound.add(name)
        self.generic_visit(node)

    visit_ExceptHandler = visit_MatchAs = visit_MatchStar = visit_MatchMapping = _bind_as

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        scope = self.scope
        while scope.kind == "comprehension" and scope.parent is not None:
            scope = scope.parent
        scope.bound.add(node.target.id)

    # -- annotations ----------------------------------------------------

    def _annotation(self, node: ast.AST | None) -> None:
        if node is None:
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return
            ast.increment_lineno(parsed, node.lineno - 1)
            self._annotation(parsed.body)
        elif isinstance(node, ast.Subscript) and "Literal" in (
            getattr(node.value, "id", None),
            getattr(node.value, "attr", None),
        ):
            self.visit(node.value)
        elif isinstance(node, ast.Name):
            self.visit(node)
        else:
            for child in ast.iter_child_nodes(node):
                self._annotation(child)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)

    # -- scopes ---------------------------------------------------------

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        a = node.args
        for expr in [*getattr(node, "decorator_list", ()), *a.defaults, *a.kw_defaults]:
            if expr is not None:
                self.visit(expr)
        args = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        for arg in args:
            self._annotation(arg.annotation)
        if isinstance(node, ast.Lambda):
            self._enter("function", {arg.arg for arg in args}, [node.body])
            return
        self._annotation(node.returns)
        self.scope.bound.add(node.name)
        self._enter("function", {arg.arg for arg in args}, node.body)

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expr in [*node.decorator_list, *node.bases, *node.keywords]:
            self.visit(expr)
        self.scope.bound.add(node.name)
        self._enter("class", {"__module__", "__qualname__"}, node.body)

    def visit_ListComp(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        # The first iterable evaluates in the enclosing scope.
        generators = node.generators
        self.visit(generators[0].iter)
        body: list = []
        for i, gen in enumerate(generators):
            body += [gen.target, *([gen.iter] if i else []), *gen.ifs]
        results = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        self._enter("comprehension", set(), body + results)

    visit_SetComp = visit_GeneratorExp = visit_DictComp = visit_ListComp


class UndefinedNameRule(Rule):
    name = "undefined-name"
    description = (
        "every loaded name must be bound in a visible scope, imported, or a builtin"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        builder = _ScopeBuilder()
        builder.visit(module.tree)
        if builder.star_import:
            return []
        return sorted(
            self.finding(
                module,
                node,
                f"undefined name {name!r}",
                hint="import or define it, or delete the reference to a "
                "name that no longer exists",
            )
            for scope in builder.scopes
            for name, node in scope.loads
            if not scope.resolves(name)
        )
