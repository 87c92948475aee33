"""Wire-to-kernel taint tracking (``wire-taint``).

Untrusted bytes enter the system at exactly two places — the serve
layer's HTTP request decode and the cluster's length-prefixed TCP
frame reads — and must pass a protocol codec/validation function
before they reach the engine or the filesystem.  This pass proves it:

* **Sources** — return values of
  ``repro.cluster.protocol.read_frame`` and
  ``repro.serve.http.read_request``; any value derived from an
  :class:`~repro.serve.http.HttpRequest` (attribute reads, ``.json()``)
  is tainted, whether the request came from ``read_request`` or a
  parameter annotated ``HttpRequest``; and the first parameter of any
  frame handler handed to a :class:`~repro.cluster.protocol.FrameShell`
  (the shell calls it with each frame it reads).
* **Sanitizers** — the protocol codecs and validators
  (``SearchRequest.from_json`` and friends, ``RoutingTable.from_json``,
  the ``expect_*`` helpers of :mod:`repro.cluster.protocol`,
  ``parse_table_id``), plus any project function whose ``def`` line
  carries a ``# taint: sanitizer`` comment.  A sanitizer's return
  value is clean.
* **Sinks** — engine entry points (``search``/``search_many``/
  ``search_shard_batch``/``add_table``/``remove_table``/
  ``explain``), the persistent-index
  loaders of :mod:`repro.core.kernel.storage`, and filesystem path
  arguments (``open``, ``np.memmap``).

A tainted value reaching a sink argument is an **error**.  Taint is a
may-analysis: it propagates through assignments, subscripts, f-strings,
containers, and calls to unknown functions, joins by union at CFG
merges, and crosses function boundaries through a call-graph worklist
(a project function called with a tainted argument is re-analyzed with
that parameter tainted).  Lambdas and nested functions are analyzed in
the enclosing taint environment, so a handler closing over a raw URL
segment cannot smuggle it past the check.  Implicit flows (branching
on a tainted value) are deliberately out of scope.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding
from repro.analysis.flow.base import FlowRule
from repro.analysis.flow.cfg import (
    _CondMarker,
    _WithEnter,
    build_cfg,
    solve_forward,
)
from repro.analysis.flow.symbols import FunctionInfo, Project
from repro.analysis.rules.base import dotted_name

_SANITIZER_PRAGMA_RE = re.compile(r"#\s*taint:\s*sanitizer\b")

#: Canonical names whose return value is tainted wire input.
SOURCE_FUNCTIONS = {
    "repro.cluster.protocol.read_frame",
    "repro.serve.http.read_request",
}

#: Parameter annotations marking a tainted carrier object: every
#: attribute read or method call on it yields tainted data.
CARRIER_TYPES = {"HttpRequest"}

#: Canonical names of validation/codec functions whose return is clean.
SANITIZER_FUNCTIONS = {
    "repro.serve.protocol.SearchRequest.from_json",
    "repro.serve.protocol.ExplainRequest.from_json",
    "repro.serve.protocol.TableUpsertRequest.from_json",
    "repro.serve.protocol.parse_table_id",
    "repro.cluster.protocol.RoutingTable.from_json",
    "repro.cluster.protocol.expect_type",
    "repro.cluster.protocol.expect_epoch",
    "repro.cluster.protocol.expect_worker_id",
    "repro.cluster.protocol.expect_worker_ids",
    "repro.cluster.protocol.expect_endpoint",
    "repro.cluster.protocol.expect_segment_path",
}

#: Method names that reach the engine: calling any of these with a
#: tainted argument is a finding regardless of receiver resolution.
SINK_METHODS = {
    "search",
    "search_many",
    "search_shard_batch",
    "add_table",
    "remove_table",
    "explain",
}

#: Canonical function names that are sinks on every argument.
SINK_FUNCTIONS = {
    "repro.core.kernel.storage.load_index",
    "repro.core.kernel.storage.save_index",
    "repro.core.kernel.storage.inspect_index",
}

#: Shells that call their first argument with every frame they read:
#: the handler's first parameter is wire input.
FRAME_HANDLER_SHELLS = {"repro.cluster.protocol.FrameShell"}

#: Canonical names that are sinks on their *path* argument only.
PATH_SINKS = {"open": 0, "numpy.memmap": 0, "os.makedirs": 0}


class _Env:
    """Immutable taint environment: the set of tainted local names.

    Two name spaces share it: plain locals, and ``carrier:<name>`` for
    carrier objects whose *derived* values (not the object itself) are
    tainted.
    """

    __slots__ = ("names",)

    def __init__(self, names: FrozenSet[str] = frozenset()):
        self.names = names

    def __eq__(self, other) -> bool:
        return isinstance(other, _Env) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def with_names(self, names: Set[str]) -> "_Env":
        return _Env(self.names | frozenset(names)) if names else self

    def without(self, name: str) -> "_Env":
        return _Env(self.names - {name})


class WireTaintRule(FlowRule):
    """Wire input must pass a protocol codec before engine/filesystem."""

    id = "wire-taint"
    severity = "error"
    description = (
        "a value read from the wire (HTTP body, cluster frame) reaches "
        "an engine or filesystem sink without passing a protocol "
        "codec/validation function"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = _TaintAnalysis(project)
        for display, line, message in analysis.run():
            yield self.project_finding(display, line, message)


class _TaintAnalysis:
    def __init__(self, project: Project):
        self.project = project
        self.sanitizers = set(SANITIZER_FUNCTIONS)
        self._collect_annotated_sanitizers()
        #: qualname -> frozenset of tainted parameter names discovered.
        self.tainted_params: Dict[str, FrozenSet[str]] = {}
        self.findings: Dict[Tuple[str, int, str], None] = {}

    def _collect_annotated_sanitizers(self) -> None:
        for function in self.project.functions():
            comments = function.module.source.comments
            lines = [function.node.lineno]
            lines.extend(d.lineno for d in function.node.decorator_list)
            if any(
                _SANITIZER_PRAGMA_RE.search(comments.get(line, ""))
                for line in lines
            ):
                self.sanitizers.add(self._qualified(function))

    @staticmethod
    def _qualified(function: FunctionInfo) -> str:
        return function.qualname.replace(":", ".")

    # ------------------------------------------------------------------
    def run(self) -> List[Tuple[str, int, str]]:
        worklist: List[FunctionInfo] = []
        for function in self.project.functions():
            self.tainted_params[function.qualname] = frozenset()
            worklist.append(function)
        seen_states: Dict[str, FrozenSet[str]] = {}
        guard = 0
        while worklist and guard < 10000:
            guard += 1
            function = worklist.pop(0)
            state = self.tainted_params[function.qualname]
            if seen_states.get(function.qualname) == state:
                continue
            seen_states[function.qualname] = state
            for callee, params in self._analyze(function, state):
                merged = self.tainted_params[callee.qualname] | params
                if merged != self.tainted_params[callee.qualname]:
                    self.tainted_params[callee.qualname] = merged
                    if callee not in worklist:
                        worklist.append(callee)
        return [
            (display, line, message)
            for (display, line, message) in self.findings
        ]

    # ------------------------------------------------------------------
    def _analyze(
        self, function: FunctionInfo, tainted_params: FrozenSet[str]
    ) -> List[Tuple[FunctionInfo, FrozenSet[str]]]:
        """Analyze one function; returns (callee, tainted params) facts."""
        propagations: List[Tuple[FunctionInfo, FrozenSet[str]]] = []
        init_names: Set[str] = set(tainted_params)
        for arg in (function.node.args.args
                    + function.node.args.kwonlyargs
                    + function.node.args.posonlyargs):
            annotation = arg.annotation
            if annotation is not None:
                name = dotted_name(annotation)
                if name and name.split(".")[-1] in CARRIER_TYPES:
                    init_names.add(f"carrier:{arg.arg}")
        init = _Env(frozenset(init_names))
        cfg = build_cfg(function.node)

        def join(a: _Env, b: _Env) -> _Env:
            return _Env(a.names | b.names)

        def transfer(env: _Env, stmt: ast.stmt) -> _Env:
            return self._transfer(function, env, stmt, propagations)

        in_states = solve_forward(cfg, init, join, transfer, bottom=None)
        # Re-walk every block at its fixpoint in-state to emit findings
        # (the solver's transfer already collected propagation facts,
        # but findings need the final states too — dedup via the dict).
        for block in cfg.blocks:
            env = in_states.get(block.index)
            if env is None:
                env = _Env()
            for stmt in block.statements:
                env = self._transfer(function, env, stmt, propagations,
                                     report=True)
        return propagations

    # ------------------------------------------------------------------
    def _transfer(
        self,
        function: FunctionInfo,
        env: _Env,
        stmt: ast.stmt,
        propagations: List[Tuple[FunctionInfo, FrozenSet[str]]],
        report: bool = False,
    ) -> _Env:
        if isinstance(stmt, _WithEnter):
            for item in getattr(stmt.node, "items", []):
                self._check_expr(function, env, item.context_expr,
                                 propagations, report)
            return env
        if isinstance(stmt, _CondMarker):
            if stmt.expr is not None:
                self._check_expr(function, env, stmt.expr,
                                 propagations, report)
            return env
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: analyze its body in the enclosing environment
            # (closure taint), params treated as clean.
            inner = env
            for node in stmt.body:
                inner = self._transfer(function, inner, node,
                                       propagations, report)
            return env
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            tainted = (
                value is not None
                and self._check_expr(function, env, value,
                                     propagations, report)
            )
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for name in self._target_names(target):
                    if tainted or (isinstance(stmt, ast.AugAssign)
                                   and name in env.names):
                        env = env.with_names({name})
                    elif isinstance(stmt, ast.Assign):
                        env = env.without(name)
            return env
        if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor,
                             ast.With, ast.AsyncWith, ast.Try)):
            # Raw compound statements only occur inside nested defs
            # (the CFG lowers top-level ones); approximate by walking
            # every sub-statement in sequence.
            for field_name in ("items",):
                for item in getattr(stmt, field_name, []):
                    self._check_expr(function, env, item.context_expr,
                                     propagations, report)
            for attr in ("test", "iter"):
                sub = getattr(stmt, attr, None)
                if sub is not None:
                    self._check_expr(function, env, sub,
                                     propagations, report)
            for body_attr in ("body", "orelse", "finalbody"):
                for sub in getattr(stmt, body_attr, []):
                    if isinstance(sub, ast.stmt):
                        env = self._transfer(function, env, sub,
                                             propagations, report)
            for handler in getattr(stmt, "handlers", []):
                for sub in handler.body:
                    env = self._transfer(function, env, sub,
                                         propagations, report)
            return env
        # Plain expression/return/raise/assert statements.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._check_expr(function, env, child,
                                 propagations, report)
        return env

    @staticmethod
    def _target_names(target: ast.AST) -> Iterator[str]:
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from _TaintAnalysis._target_names(element)
        elif isinstance(target, ast.Starred):
            yield from _TaintAnalysis._target_names(target.value)

    # ------------------------------------------------------------------
    def _check_expr(
        self,
        function: FunctionInfo,
        env: _Env,
        node: ast.AST,
        propagations: List[Tuple[FunctionInfo, FrozenSet[str]]],
        report: bool,
    ) -> bool:
        """Taintedness of an expression; checks sinks along the way."""
        if isinstance(node, ast.Name):
            return node.id in env.names
        if isinstance(node, ast.Lambda):
            # Analyze the body in the enclosing environment (params
            # clean); the lambda expression itself is not tainted.
            self._check_expr(function, env, node.body, propagations,
                             report)
            return False
        if isinstance(node, ast.Attribute):
            base_tainted = self._check_expr(function, env, node.value,
                                            propagations, report)
            if self._is_carrier(env, node.value):
                return True
            return base_tainted
        if isinstance(node, ast.Call):
            return self._check_call(function, env, node, propagations,
                                    report)
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Await,
                             ast.UnaryOp, ast.FormattedValue)):
            return any(
                self._check_expr(function, env, child, propagations,
                                 report)
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            )
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.JoinedStr,
                             ast.Compare, ast.IfExp, ast.Tuple, ast.List,
                             ast.Set, ast.Dict)):
            tainted = False
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    if self._check_expr(function, env, child,
                                        propagations, report):
                        tainted = True
            if isinstance(node, ast.Compare):
                return False  # comparisons yield booleans, not data
            return tainted
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            # A tainted iterable taints the loop variables, but the
            # comprehension's own taint is the element's alone — a
            # sanitizer applied per element yields a clean container.
            iter_tainted = False
            for generator in node.generators:
                if self._check_expr(function, env, generator.iter,
                                    propagations, report):
                    iter_tainted = True
            local = env
            if iter_tainted:
                for generator in node.generators:
                    local = local.with_names(
                        set(self._target_names(generator.target))
                    )
            tainted = False
            for sub in ([node.elt] if hasattr(node, "elt")
                        else [node.key, node.value]):
                if self._check_expr(function, local, sub, propagations,
                                    report):
                    tainted = True
            return tainted
        if isinstance(node, ast.Constant):
            return False
        # Anything else: walk children, propagate any taint.
        return any(
            self._check_expr(function, env, child, propagations, report)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )

    def _is_carrier(self, env: _Env, node: ast.AST) -> bool:
        return (isinstance(node, ast.Name)
                and f"carrier:{node.id}" in env.names)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        function: FunctionInfo,
        env: _Env,
        call: ast.Call,
        propagations: List[Tuple[FunctionInfo, FrozenSet[str]]],
        report: bool,
    ) -> bool:
        arg_taints: List[Tuple[Optional[str], bool]] = []
        for arg in call.args:
            value = arg.value if isinstance(arg, ast.Starred) else arg
            arg_taints.append(
                (None,
                 self._check_expr(function, env, value, propagations,
                                  report))
            )
        for keyword in call.keywords:
            arg_taints.append(
                (keyword.arg,
                 self._check_expr(function, env, keyword.value,
                                  propagations, report))
            )
        any_tainted = any(tainted for _, tainted in arg_taints)
        canonical = self.project.canonical_name(function, call.func)
        # Deferred-call indirection: ``functools.partial(f, x)`` and
        # ``loop.run_in_executor(pool, f, x)`` invoke ``f`` later with
        # the bound arguments — analyze the underlying call directly so
        # taint crosses the indirection.
        deferred = self._deferred_call(canonical, call)
        if deferred is not None:
            self._check_call(function, env, deferred, propagations,
                             report)
        if canonical in FRAME_HANDLER_SHELLS and call.args:
            # The shell calls its handler with every frame it reads.
            handler = ast.Call(func=call.args[0], args=[], keywords=[])
            callee = self.project.resolve_call(function, handler)
            if callee is not None:
                propagations.append((callee, self._map_args_to_params(
                    callee, handler, [(None, True)]
                )))
        # Receiver taint: method calls on tainted objects yield taint.
        receiver_tainted = False
        if isinstance(call.func, ast.Attribute):
            receiver_tainted = self._check_expr(
                function, env, call.func.value, propagations, False
            )
            if self._is_carrier(env, call.func.value):
                receiver_tainted = True
        # Sanitizers: clean return, regardless of argument taint.
        if canonical is not None and (
            canonical in self.sanitizers
            or self._resolves_to_sanitizer(function, call)
        ):
            return False
        # Sources.
        if canonical in SOURCE_FUNCTIONS:
            return True
        # Sinks.
        if report and any_tainted:
            self._report_sink(function, call, canonical, arg_taints)
        # Project calls: propagate taint into the callee's params.
        callee = self.project.resolve_call(function, call)
        if callee is not None:
            if self._qualified(callee) in self.sanitizers:
                return False
            if any_tainted:
                tainted_names = self._map_args_to_params(
                    callee, call, arg_taints
                )
                if tainted_names:
                    propagations.append((callee, tainted_names))
            # Return taint: a callee analyzed with tainted params (or a
            # source inside) may return taint; approximate by "any
            # tainted arg taints the return" for project calls too.
            return any_tainted or self._returns_source(callee)
        return any_tainted or receiver_tainted

    @staticmethod
    def _deferred_call(canonical: Optional[str],
                       call: ast.Call) -> Optional[ast.Call]:
        """The underlying call bound by a deferred-call wrapper."""
        target: Optional[ast.expr] = None
        bound: List[ast.expr] = []
        if canonical == "functools.partial" and call.args:
            target = call.args[0]
            bound = list(call.args[1:])
        elif (isinstance(call.func, ast.Attribute)
              and call.func.attr == "run_in_executor"
              and len(call.args) >= 2):
            target = call.args[1]
            bound = list(call.args[2:])
        if target is None or isinstance(target, (ast.Lambda,
                                                 ast.Constant)):
            return None
        synthetic = ast.Call(func=target, args=bound,
                             keywords=list(call.keywords))
        ast.copy_location(synthetic, call)
        ast.fix_missing_locations(synthetic)
        return synthetic

    def _resolves_to_sanitizer(self, function: FunctionInfo,
                               call: ast.Call) -> bool:
        callee = self.project.resolve_call(function, call)
        return (callee is not None
                and self._qualified(callee) in self.sanitizers)

    _returns_source_cache: Dict[str, bool] = {}

    def _returns_source(self, callee: FunctionInfo) -> bool:
        """Whether the callee's body calls a source function directly."""
        cached = self._returns_source_cache.get(callee.qualname)
        if cached is not None:
            return cached
        result = False
        for node in ast.walk(callee.node):
            if isinstance(node, ast.Call):
                canonical = self.project.canonical_name(callee, node.func)
                if canonical in SOURCE_FUNCTIONS:
                    result = True
                    break
        self._returns_source_cache[callee.qualname] = result
        return result

    @staticmethod
    def _map_args_to_params(
        callee: FunctionInfo,
        call: ast.Call,
        arg_taints: List[Tuple[Optional[str], bool]],
    ) -> FrozenSet[str]:
        params = callee.params()
        offset = 1 if params[:1] == ["self"] and isinstance(
            call.func, ast.Attribute
        ) else 0
        tainted: Set[str] = set()
        positional = [t for name, t in arg_taints if name is None]
        for index, is_tainted in enumerate(positional):
            slot = index + offset
            if is_tainted and slot < len(params):
                tainted.add(params[slot])
        for name, is_tainted in arg_taints:
            if name is not None and is_tainted and name in params:
                tainted.add(name)
        return frozenset(tainted)

    # ------------------------------------------------------------------
    def _report_sink(
        self,
        function: FunctionInfo,
        call: ast.Call,
        canonical: Optional[str],
        arg_taints: List[Tuple[Optional[str], bool]],
    ) -> None:
        display = function.module.source.display
        sink_name: Optional[str] = None
        if canonical in SINK_FUNCTIONS:
            sink_name = canonical
        elif canonical in PATH_SINKS:
            position = PATH_SINKS[canonical]
            positional = [t for name, t in arg_taints if name is None]
            path_tainted = (
                (position < len(positional) and positional[position])
                or any(name in ("file", "filename", "path") and tainted
                       for name, tainted in arg_taints)
            )
            if path_tainted:
                sink_name = canonical
        elif (isinstance(call.func, ast.Attribute)
              and call.func.attr in SINK_METHODS):
            sink_name = call.func.attr
        elif (isinstance(call.func, ast.Name)
              and call.func.id in SINK_METHODS):
            sink_name = call.func.id
        if sink_name is None:
            return
        key = (
            display,
            call.lineno,
            f"wire-tainted value reaches sink '{sink_name}' without "
            "passing a protocol codec/validation function; validate it "
            "with the serve/cluster protocol helpers first",
        )
        self.findings[key] = None
