"""Rule ``commit-point``: journal records obey the durability ordering.

``docs/ARCHITECTURE.md`` §6.2 states the crash-consistency contract PR 6
built: a chunk's device write strictly precedes the journal record that
claims it (so the journal never over-claims — an unjournaled device chunk
is a sweepable orphan, a journaled-but-unwritten chunk would be data
loss), a sealed partial is deleted only after the record of the key that
replaces it (a crash in between would lose the rows the deleted copy
held), and a ``free`` record precedes the deletions it describes (so a
replayed prefix never resurrects a half-deleted context).  Reordering
either side is a one-line refactor that passes every test that doesn't
crash mid-operation.

This rule re-derives the ordering from the AST, per function, over a
simplified control-flow graph:

- Statements evaluate in order; ``if``/``try`` branches fork and merge
  ("a device write happened" holds after the merge only if it held on
  every branch; "a deletion happened" holds if it held on any).
- No path continues past a ``raise`` (an ``except`` block that cleans up
  and re-raises does not reach the code after the ``try``).
- Loop bodies are assumed to execute at least once (the regression class
  is *reordering*, which this catches; a zero-iteration loop writes no
  chunk and journals an empty record).
- Nested functions are independent scopes (the manager's ``flush_chunk``
  closure contains its own write-then-journal pair).

Checked events:

- ``<anything-not-journal>.write(...)`` marks the device write done.
- ``<...>journal.append({"op": "chunk" | "seal", ...})`` must be
  write-dominated and follow no ``.delete(...)`` or ``.free_context(...)``
  call on any path; ``{"op": "free"}`` must precede any such call.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule

_RECORD_OPS_NEEDING_WRITE = {"chunk", "seal"}
_DELETE_CALLS = {"delete", "free_context"}


@dataclass
class _State:
    write_done: bool = False
    deleted: bool = False

    def copy(self) -> "_State":
        return _State(self.write_done, self.deleted)

    def merge(self, other: "_State") -> "_State":
        return _State(
            write_done=self.write_done and other.write_done,
            deleted=self.deleted or other.deleted,
        )


def _journal_op(call: ast.Call) -> str | None:
    """The ``op`` of a ``journal.append({...})`` call, else ``None``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "append"):
        return None
    receiver = func.value
    recv_name = None
    if isinstance(receiver, ast.Attribute):
        recv_name = receiver.attr
    elif isinstance(receiver, ast.Name):
        recv_name = receiver.id
    if recv_name != "journal":
        return None
    if not call.args or not isinstance(call.args[0], ast.Dict):
        return "<unknown>"
    record = call.args[0]
    for key, value in zip(record.keys, record.values):
        if (
            isinstance(key, ast.Constant)
            and key.value == "op"
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value
    return "<unknown>"


def _is_device_write(call: ast.Call) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "write"):
        return False
    # `journal.write(...)` (if it existed) would not be a payload write.
    receiver = func.value
    name = receiver.attr if isinstance(receiver, ast.Attribute) else (
        receiver.id if isinstance(receiver, ast.Name) else ""
    )
    return name != "journal"


def _is_delete(call: ast.Call) -> bool:
    func = call.func
    return isinstance(func, ast.Attribute) and func.attr in _DELETE_CALLS


class CommitPointRule(Rule):
    name = "commit-point"
    description = (
        "journal 'chunk'/'seal' records must follow the device write on every "
        "path and precede every deletion; 'free' records must precede the "
        "deletions they describe"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._eval_block(module, node.body, _State(), findings)
        return findings

    # -- mini-CFG evaluation -------------------------------------------
    #
    # ast.walk above visits nested functions on its own, so _eval_*
    # deliberately does not descend into FunctionDef/Lambda bodies.

    def _eval_block(
        self,
        module: ModuleInfo,
        stmts: list[ast.stmt],
        state: _State,
        findings: list[Finding],
    ) -> _State:
        for stmt in stmts:
            state = self._eval_stmt(module, stmt, state, findings)
        return state

    def _eval_stmt(
        self,
        module: ModuleInfo,
        stmt: ast.stmt,
        state: _State,
        findings: list[Finding],
    ) -> _State:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state
        if isinstance(stmt, ast.Raise):
            # No path continues: the state every merge leaves unchanged.
            return _State(write_done=True)
        if isinstance(stmt, ast.If):
            state = self._eval_expr(module, stmt.test, state, findings)
            then = self._eval_block(module, stmt.body, state.copy(), findings)
            other = self._eval_block(module, stmt.orelse, state.copy(), findings)
            return then.merge(other)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self._eval_expr(module, stmt.iter, state, findings)
            after_body = self._eval_block(module, stmt.body, state.copy(), findings)
            return self._eval_block(module, stmt.orelse, after_body, findings)
        if isinstance(stmt, ast.While):
            state = self._eval_expr(module, stmt.test, state, findings)
            after_body = self._eval_block(module, stmt.body, state.copy(), findings)
            return self._eval_block(module, stmt.orelse, after_body, findings)
        if isinstance(stmt, ast.Try):
            body_state = self._eval_block(module, stmt.body, state.copy(), findings)
            merged = body_state
            for handler in stmt.handlers:
                # A handler may run after any prefix of the body: start it
                # from the conservative pre-body state.
                handler_state = self._eval_block(
                    module, handler.body, state.copy(), findings
                )
                merged = merged.merge(handler_state)
            merged = self._eval_block(module, stmt.orelse, merged, findings)
            return self._eval_block(module, stmt.finalbody, merged, findings)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = self._eval_expr(module, item.context_expr, state, findings)
            return self._eval_block(module, stmt.body, state, findings)
        # Plain statement: evaluate contained expressions in source order.
        for child in ast.iter_child_nodes(stmt):
            state = self._eval_expr(module, child, state, findings)
        return state

    def _eval_expr(
        self,
        module: ModuleInfo,
        node: ast.AST,
        state: _State,
        findings: list[Finding],
    ) -> _State:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return state
        if isinstance(node, ast.Call):
            # Arguments evaluate before the call fires.
            for child in ast.iter_child_nodes(node):
                state = self._eval_expr(module, child, state, findings)
            op = _journal_op(node)
            if op is not None:
                if op in _RECORD_OPS_NEEDING_WRITE and (state.deleted or not state.write_done):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"journal {op!r} record appended "
                            + (
                                "after a deletion on at least one path — a crash "
                                "in between loses the rows the deleted copy held"
                                if state.deleted
                                else "before the chunk's device write on at least "
                                "one path — the journal would over-claim after a "
                                "crash here"
                            ),
                            hint="write the payload to its device first, journal "
                            "it, then delete what it replaces (ARCHITECTURE §6.2)",
                        )
                    )
                elif op == "free" and state.deleted:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "journal 'free' record appended after a deletion — "
                            "a crash in between resurrects half-deleted state "
                            "on replay",
                            hint="journal the free first, then delete "
                            "(ARCHITECTURE §6.2)",
                        )
                    )
            if _is_device_write(node):
                state = state.copy()
                state.write_done = True
            if _is_delete(node):
                state = state.copy()
                state.deleted = True
            return state
        for child in ast.iter_child_nodes(node):
            state = self._eval_expr(module, child, state, findings)
        return state
    # NOTE: `state` is treated as immutable across branches via copy();
    # _eval_expr only mutates fresh copies.
