"""Kernel-safety rules for the vectorized scoring substrate.

The ``core/kernel`` arrays are compiled once, marked read-only, and
shared across reader threads; parity with the scalar engine is promised
to 1e-9.  Four classes of silent numpy behavior can break that without
failing a single test loudly.  The first three rules also run on
``core/assignment.py``, whose enumeration both kernels run:

``missing-dtype``
    ``np.zeros/ones/empty/full`` without an explicit ``dtype=`` pick
    platform defaults; an index array that comes out ``int32`` on one
    platform and ``int64`` on another changes overflow and memory
    behavior.  Kernel allocations spell their dtype.

``np-array-copy``
    ``np.array(x)`` *always copies*.  Applied to an interned index
    array where a view was intended, it silently doubles memory and
    detaches the copy from the read-only interning.  Use
    ``np.asarray(x)`` (no copy when possible) or pass ``copy=``
    explicitly to show the copy is wanted.

``float-dtype-mix``
    Arithmetic between float32 and float64 locals upcasts silently —
    half the operands lose the precision the 1e-9 parity bound assumes.
    Tracked per function over locals with statically-known float
    dtypes.

``memmap-explicit``
    ``np.memmap`` defaults are a trap for a persistent format:
    ``dtype`` defaults to uint8 *today* (easy to rely on by accident),
    ``mode`` defaults to ``'r+'`` (a reader that silently opens the
    index writable), and omitting ``offset``/``shape`` maps "whatever
    the file currently holds".  The on-disk kernel format
    (``core/kernel/storage.py``) promises byte-stable layouts, so every
    memmap spells all four out.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.engine import Finding, SourceFile
from repro.analysis.rules.base import (
    Rule,
    canonical_call_name,
    dotted_name,
    import_aliases,
)

_ALLOCATORS = {
    "numpy.zeros",
    "numpy.ones",
    "numpy.empty",
    "numpy.full",
}

_FLOAT_DTYPES = {
    "numpy.float32": "float32",
    "numpy.float64": "float64",
    "float32": "float32",
    "float64": "float64",
}


def _dtype_of_keyword(node: ast.Call) -> Optional[str]:
    """The ``dtype=`` keyword as a normalized string, if resolvable."""
    for keyword in node.keywords:
        if keyword.arg != "dtype":
            continue
        value = keyword.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        name = dotted_name(value)
        if name is not None:
            return name.split(".", 1)[-1] if name.startswith("np.") else name
    return None


class _KernelCodeRule(Rule):
    """A rule over ``core/kernel`` and the assignment module."""

    scope = ("kernel",)

    def applies(self, source: SourceFile) -> bool:
        return super().applies(source) or (
            source.parts()[-2:] == ("core", "assignment.py")
        )


class MissingDtypeRule(_KernelCodeRule):
    """Require explicit ``dtype=`` on kernel array allocations."""

    id = "missing-dtype"
    severity = "warning"
    description = (
        "a numpy allocation in the kernel has no explicit dtype=, "
        "inheriting platform-dependent defaults"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = canonical_call_name(node.func, aliases)
            if target not in _ALLOCATORS:
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            short = target.split(".")[-1]
            yield self.finding(
                source,
                node,
                f"'np.{short}' without an explicit dtype=; kernel "
                "allocations must pin their dtype",
            )


class NpArrayCopyRule(_KernelCodeRule):
    """Prefer ``np.asarray`` over ``np.array`` on existing arrays."""

    id = "np-array-copy"
    severity = "warning"
    description = (
        "np.array(...) over an existing array always copies; use "
        "np.asarray or pass copy= explicitly"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            target = canonical_call_name(node.func, aliases)
            if target != "numpy.array":
                continue
            if any(keyword.arg == "copy" for keyword in node.keywords):
                continue
            # Fresh containers (list/tuple/comprehension literals) are
            # not copies of anything; only flag pre-existing objects.
            first = node.args[0]
            if isinstance(first, (ast.Name, ast.Attribute, ast.Subscript)):
                origin = dotted_name(first) or "<expression>"
                yield self.finding(
                    source,
                    node,
                    f"'np.array({origin})' copies unconditionally; use "
                    "np.asarray to share a view of interned index arrays "
                    "(or copy= to mark the copy intentional)",
                )


class MemmapExplicitRule(Rule):
    """Require dtype/mode/offset/shape keywords on ``np.memmap``."""

    id = "memmap-explicit"
    severity = "warning"
    description = (
        "np.memmap without explicit dtype=, mode=, offset= and shape= "
        "keywords relies on defaults that break the persistent-format "
        "contract (uint8, writable 'r+', whole-file extent)"
    )
    scope = ("kernel",)

    _REQUIRED = ("dtype", "mode", "offset", "shape")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = canonical_call_name(node.func, aliases)
            if target != "numpy.memmap":
                continue
            passed = {keyword.arg for keyword in node.keywords}
            missing = [
                name for name in self._REQUIRED if name not in passed
            ]
            if not missing:
                continue
            yield self.finding(
                source,
                node,
                "'np.memmap' must pass "
                + ", ".join(f"{name}=" for name in missing)
                + " explicitly; mapping a persistent index with default "
                "dtype/mode/extent reads (or writes!) bytes the header "
                "never promised",
            )


class FloatDtypeMixRule(_KernelCodeRule):
    """Flag arithmetic mixing float32 and float64 locals."""

    id = "float-dtype-mix"
    severity = "warning"
    description = (
        "arithmetic between float32 and float64 locals silently "
        "upcasts, invalidating precision assumptions"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(source, node, aliases)

    def _check_function(
        self,
        source: SourceFile,
        function: ast.AST,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        widths: Dict[str, str] = {}
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign):
                continue
            width = self._known_float_width(node.value, aliases)
            if width is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    widths[target.id] = width
        if not widths:
            return
        for node in ast.walk(function):
            if not isinstance(node, ast.BinOp):
                continue
            left = self._operand_width(node.left, widths)
            right = self._operand_width(node.right, widths)
            if left and right and left != right:
                yield self.finding(
                    source,
                    node,
                    f"mixing {left} and {right} operands silently upcasts "
                    "to float64; align the dtypes explicitly",
                )

    def _known_float_width(
        self, value: ast.AST, aliases: Dict[str, str]
    ) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        target = canonical_call_name(value.func, aliases)
        if target not in _ALLOCATORS:
            return None
        dtype = _dtype_of_keyword(value)
        if dtype is None:
            # zeros/ones/empty default to float64 (full infers, skip it).
            return "float64" if target != "numpy.full" else None
        normalized = dtype.split(".")[-1]
        return _FLOAT_DTYPES.get(normalized) or _FLOAT_DTYPES.get(dtype)

    @staticmethod
    def _operand_width(node: ast.AST, widths: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            return widths.get(node.id)
        return None
