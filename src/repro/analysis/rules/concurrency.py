"""Concurrency rules: lock discipline and asyncio hygiene.

The system's thread-safety story rests on a handful of locks guarding
mutable state (similarity caches, engine indexes, serve snapshots and
metrics).  These rules make that discipline machine-checked:

``guarded-attr-outside-lock``
    Instance attributes annotated ``# guarded-by: <lock>`` on their
    assignment must only be touched inside ``with self.<lock>:``.
    ``__init__`` and ``__setstate__`` are exempt (the object is not yet
    shared while it is being constructed or unpickled).  Intentionally
    lock-free fast paths carry an inline pragma plus a comment saying
    *why* the race is benign.

``lock-in-async``
    A synchronous ``with <something>lock:`` inside ``async def`` blocks
    the event loop for every other request; use an ``asyncio`` lock or
    move the work to an executor.

``blocking-call-in-async``
    Known blocking calls (``time.sleep``, ``open``, ``subprocess.*``,
    sync sockets/urllib) inside ``async def`` stall the serve path.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set

from repro.analysis.engine import Finding, SourceFile
from repro.analysis.rules.base import (
    Rule,
    canonical_call_name,
    dotted_name,
    import_aliases,
    is_self_attribute,
)

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")

#: Methods where guarded attributes may be touched freely: the instance
#: is not visible to other threads yet.
_CONSTRUCTION_METHODS = {"__init__", "__setstate__", "__new__"}

#: Call targets that block the thread (canonical dotted names).
_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen.wait",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}

_LOCKISH_RE = re.compile(r"(?:^|_)(?:r?lock|mutex|semaphore)$", re.IGNORECASE)


def _looks_like_lock(expr: ast.AST) -> bool:
    """Heuristic: the context-manager expression names a lock."""
    name = dotted_name(expr)
    if name is None:
        if isinstance(expr, ast.Call):
            return _looks_like_lock(expr.func)
        return False
    last = name.split(".")[-1]
    if last in ("acquire", "acquire_lock"):
        return True
    return bool(_LOCKISH_RE.search(last))


class GuardedAttributeRule(Rule):
    """Enforce ``# guarded-by: <lock>`` annotations lexically."""

    id = "guarded-attr-outside-lock"
    severity = "error"
    description = (
        "an attribute annotated '# guarded-by: <lock>' is read or "
        "written outside a 'with self.<lock>:' block"
    )

    # ------------------------------------------------------------------
    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node)

    def _own_nodes(self, class_node: ast.ClassDef) -> Iterator[ast.AST]:
        """Walk the class without descending into nested classes."""
        stack: List[ast.AST] = list(class_node.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.ClassDef):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _guarded_attrs(
        self, source: SourceFile, class_node: ast.ClassDef
    ) -> Dict[str, str]:
        """attr name -> lock name, from assignment-line annotations."""
        guarded: Dict[str, str] = {}
        for node in self._own_nodes(class_node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            attrs = [
                attr for attr in map(is_self_attribute, targets)
                if attr is not None
            ]
            if not attrs:
                continue
            for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
                comment = source.comments.get(line)
                if comment is None:
                    continue
                match = _GUARDED_BY_RE.search(comment)
                if match is not None:
                    for attr in attrs:
                        guarded[attr] = match.group(1)
                    break
        return guarded

    def _check_class(
        self, source: SourceFile, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        guarded = self._guarded_attrs(source, class_node)
        if not guarded:
            return
        for member in class_node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name in _CONSTRUCTION_METHODS:
                continue
            for statement in member.body:
                yield from self._visit(source, statement, guarded, frozenset())

    def _held_after(self, node: ast.With, held: frozenset) -> frozenset:
        acquired: Set[str] = set()
        for item in node.items:
            attr = is_self_attribute(item.context_expr)
            if attr is not None:
                acquired.add(attr)
        return held | frozenset(acquired)

    def _visit(
        self,
        source: SourceFile,
        node: ast.AST,
        guarded: Dict[str, str],
        held: frozenset,
    ) -> Iterator[Finding]:
        if isinstance(node, ast.With):
            new_held = self._held_after(node, held)
            for item in node.items:
                yield from self._visit(source, item, guarded, held)
            for statement in node.body:
                yield from self._visit(source, statement, guarded, new_held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function runs later, possibly without the lock:
            # locks held lexically here give no guarantee at call time.
            children = (
                node.body if isinstance(node.body, list) else [node.body]
            )
            for child in children:
                yield from self._visit(source, child, guarded, frozenset())
            return
        attr = is_self_attribute(node)
        if attr is not None and attr in guarded:
            lock = guarded[attr]
            if lock not in held:
                yield self.finding(
                    source,
                    node,
                    f"'self.{attr}' is guarded by 'self.{lock}' but "
                    f"accessed outside a 'with self.{lock}:' block",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._visit(source, child, guarded, held)


class LockInAsyncRule(Rule):
    """Flag synchronous lock acquisition inside ``async def``."""

    id = "lock-in-async"
    severity = "error"
    description = (
        "a synchronous (threading) lock is acquired inside an async "
        "function, blocking the event loop"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.With):
                    for item in child.items:
                        if _looks_like_lock(item.context_expr):
                            name = dotted_name(item.context_expr) or "<lock>"
                            yield self.finding(
                                source,
                                child,
                                f"synchronous lock '{name}' acquired inside "
                                f"'async def {node.name}' blocks the event "
                                "loop; use asyncio.Lock or an executor",
                            )


class BlockingCallInAsyncRule(Rule):
    """Flag known blocking calls inside ``async def`` bodies."""

    id = "blocking-call-in-async"
    severity = "error"
    description = (
        "a blocking call (time.sleep, open, subprocess, sync IO) is "
        "made directly inside an async function"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            # Nested *sync* defs are excluded: they typically run in an
            # executor, which is exactly the recommended fix.
            for child in self._walk_async_body(node):
                if not isinstance(child, ast.Call):
                    continue
                target = canonical_call_name(child.func, aliases)
                if target is None:
                    continue
                if target == "open" or target in _BLOCKING_CALLS:
                    yield self.finding(
                        source,
                        child,
                        f"blocking call '{target}' inside "
                        f"'async def {node.name}' stalls the event loop; "
                        "use asyncio equivalents or run_in_executor",
                    )

    @staticmethod
    def _walk_async_body(root: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        stack: List[ast.AST] = list(root.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
