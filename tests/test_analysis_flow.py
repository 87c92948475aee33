"""Fixtures and acceptance tests for the whole-program flow passes.

Mirrors the ``tests/test_analysis_rules.py`` convention: every flow
rule gets a triggering fixture, a passing fixture, and a
pragma-suppressed fixture.  On top of that, the shipped tree's
lock-acquisition graph is dumped through the CLI's JSON artifacts and
independently checked for acyclicity.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.engine import LintEngine
from repro.analysis.rules import get_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(tmp_path, relpath, text, rules):
    """Lint one dedented fixture file; return the active findings."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    engine = LintEngine(get_rules(rules))
    return engine.run([path]).findings


def rule_ids(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# lock-order: deadlock cycles
# ----------------------------------------------------------------------
AB_BA_CYCLE = """\
    import threading


    class Ledger:
        def __init__(self):
            self._lock = threading.Lock()
            self.journal = Journal()

        def post(self):
            with self._lock:
                self.journal.append()

        def audit(self):
            with self._lock:{audit_pragma}
                pass


    class Journal:
        def __init__(self):
            self._lock = threading.Lock()

        def append(self):
            with self._lock:
                pass

        def replay(self, ledger: "Ledger"):
            {replay_body}
"""


def test_lock_order_flags_ab_ba_cycle(tmp_path):
    # post() takes Ledger then Journal; replay() takes Journal then
    # Ledger (via audit) — the classic AB/BA pair.
    findings = lint(
        tmp_path, "mod.py",
        AB_BA_CYCLE.format(
            audit_pragma="",
            replay_body="with self._lock:\n                ledger.audit()",
        ),
        rules=["lock-order"],
    )
    assert rule_ids(findings) == ["lock-order"]
    assert "lock-order cycle" in findings[0].message
    assert "Ledger._lock" in findings[0].message
    assert "Journal._lock" in findings[0].message
    assert findings[0].severity == "error"


def test_lock_order_consistent_order_is_clean(tmp_path):
    # replay() calls audit() without holding its own lock: the only
    # edge left is Ledger._lock -> Journal._lock, no cycle.
    findings = lint(
        tmp_path, "mod.py",
        AB_BA_CYCLE.format(audit_pragma="", replay_body="ledger.audit()"),
        rules=["lock-order"],
    )
    assert findings == []


def test_lock_order_pragma_suppresses(tmp_path):
    # The cycle finding anchors at the example-edge acquisition site
    # (Ledger.audit's ``with``); a pragma there silences it.
    findings = lint(
        tmp_path, "mod.py",
        AB_BA_CYCLE.format(
            audit_pragma="  # lint: disable=lock-order",
            replay_body="with self._lock:\n                ledger.audit()",
        ),
        rules=["lock-order"],
    )
    assert findings == []


SELF_DEADLOCK = """\
    import threading


    class Queue:
        def __init__(self):
            self._lock = threading.{constructor}()

        def push(self):
            with self._lock:
                self._flush()

        def _flush(self):
            with self._lock:
                pass
"""


def test_lock_order_self_deadlock_on_plain_lock(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        SELF_DEADLOCK.format(constructor="Lock"),
        rules=["lock-order"],
    )
    assert rule_ids(findings) == ["lock-order"]
    assert "self-deadlock" in findings[0].message


def test_lock_order_rlock_reacquire_is_clean(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        SELF_DEADLOCK.format(constructor="RLock"),
        rules=["lock-order"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# lock-order: flow-sensitive guarded-by (legacy id)
# ----------------------------------------------------------------------
GUARDED_HELPER = """\
    import threading


    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []  # guarded-by: _lock

        def add(self, item):
            with self._lock:
                self._rebuild(item)
    {extra}
        def _rebuild(self, item):
            self._items.append(item)
"""


def test_flow_guard_proves_helper_called_under_lock(tmp_path):
    # Every call site holds the lock, so the private helper needs no
    # def-line pragma — this is the case that retired the pragmas on
    # Thetis._build_prefilter and SnapshotManager._clone_current.
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_HELPER.format(extra=""),
        rules=["lock-order"],
    )
    assert findings == []


def test_flow_guard_flags_helper_with_unlocked_call_site(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_HELPER.format(extra="""
        def refresh(self, item):
            self._rebuild(item)
    """),
        rules=["lock-order"],
    )
    assert rule_ids(findings) == ["guarded-attr-outside-lock"]
    assert "_items" in findings[0].message


def test_flow_guard_flags_helper_referenced_as_value(tmp_path):
    # Handing the helper out as a callback voids the must-held proof:
    # the callback can run with any lock context.
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_HELPER.format(extra="""
        def as_callback(self):
            return self._rebuild
    """),
        rules=["lock-order"],
    )
    assert rule_ids(findings) == ["guarded-attr-outside-lock"]


# ----------------------------------------------------------------------
# wire-taint
# ----------------------------------------------------------------------
TAINT_DIRECT = """\
    from repro.cluster.protocol import read_frame


    class Searcher:
        def search(self, query, k=10):
            return []


    async def handle(reader, searcher: Searcher):
        message = await read_frame(reader)
        return searcher.search(message.get("query")){pragma}
"""


def test_wire_taint_flags_frame_reaching_search(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        TAINT_DIRECT.format(pragma=""),
        rules=["wire-taint"],
    )
    assert rule_ids(findings) == ["wire-taint"]
    assert "sink 'search'" in findings[0].message
    assert findings[0].severity == "error"


def test_wire_taint_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        TAINT_DIRECT.format(pragma="  # lint: disable=wire-taint"),
        rules=["wire-taint"],
    )
    assert findings == []


def test_wire_taint_local_sanitizer_cleans(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.cluster.protocol import read_frame


        def decode(payload):  # taint: sanitizer
            return dict(payload)


        class Searcher:
            def search(self, query):
                return []


        async def handle(reader, searcher: Searcher):
            message = await read_frame(reader)
            request = decode(message)
            return searcher.search(request)
        """,
        rules=["wire-taint"],
    )
    assert findings == []


def test_wire_taint_crosses_function_boundaries(tmp_path):
    # The sink sits in a helper; taint must flow through its parameter.
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.cluster.protocol import read_frame


        def dispatch(searcher, message):
            return searcher.search(message.get("query"))


        async def handle(reader, searcher):
            message = await read_frame(reader)
            return dispatch(searcher, message)
        """,
        rules=["wire-taint"],
    )
    assert "sink 'search'" in findings[0].message


def test_wire_taint_follows_frames_into_frame_shell_handlers(tmp_path):
    # No call site passes the handler a frame: the shell does, so the
    # handler's first parameter is wire input; a sanitized field is not.
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.cluster.protocol import FrameShell, expect_worker_id


        class Node:
            def __init__(self, searcher):
                self.searcher = searcher
                self.shell = FrameShell(self._dispatch)

            async def _dispatch(self, message):
                self.searcher.search(expect_worker_id(message))
                return {"results": self.searcher.search(message["query"])}
        """,
        rules=["wire-taint"],
    )
    assert [finding.line for finding in findings] == [11]
    assert "sink 'search'" in findings[0].message


def test_wire_taint_flags_tainted_filesystem_path(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.cluster.protocol import read_frame


        async def adopt(reader):
            message = await read_frame(reader)
            segment = message.get("path")
            with open(segment, "rb") as handle:
                return handle.read()
        """,
        rules=["wire-taint"],
    )
    assert rule_ids(findings) == ["wire-taint"]
    assert "sink 'open'" in findings[0].message


def test_wire_taint_protocol_validator_cleans_path(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.cluster.protocol import expect_segment_path, read_frame


        async def adopt(reader):
            message = await read_frame(reader)
            segment = expect_segment_path(message)
            with open(segment, "rb") as handle:
                return handle.read()
        """,
        rules=["wire-taint"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# dtype-flow (kernel scope)
# ----------------------------------------------------------------------
def test_dtype_flow_flags_unpinned_meeting_pinned_float32(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def mix():
            acc = np.zeros(8)
            scores = np.zeros(8, dtype=np.float32)
            return acc * scores
        """,
        rules=["dtype-flow"],
    )
    assert rule_ids(findings) == ["dtype-flow"]
    assert "pin the allocation's dtype" in findings[0].message
    assert findings[0].severity == "warning"


def test_dtype_flow_flags_mix_through_helper_return(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def _weights():
            return np.zeros(4, dtype=np.float32)


        def score():
            weights = _weights()
            acc = np.zeros(4, dtype=np.float64)
            return weights * acc
        """,
        rules=["dtype-flow"],
    )
    assert rule_ids(findings) == ["dtype-flow"]
    assert "silently upcasts to float64" in findings[0].message


def test_dtype_flow_flags_int32_product(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def offsets():
            rows = np.arange(6, dtype=np.int32)
            return rows * rows
        """,
        rules=["dtype-flow"],
    )
    assert rule_ids(findings) == ["dtype-flow"]
    assert "widen to int64" in findings[0].message


def test_dtype_flow_leaves_direct_mix_to_lexical_rule(tmp_path):
    # Both operands assigned straight from an allocator: the lexical
    # float-dtype-mix rule owns that site; dtype-flow stays silent so
    # the pair never double-reports.
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def mix():
            a = np.zeros(4, dtype=np.float32)
            b = np.zeros(4, dtype=np.float64)
            return a * b
        """,
        rules=["dtype-flow"],
    )
    assert findings == []


def test_dtype_flow_matching_dtypes_are_clean(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def accumulate():
            acc = np.zeros(4, dtype=np.float32)
            delta = np.ones(4, dtype=np.float32)
            return acc * delta
        """,
        rules=["dtype-flow"],
    )
    assert findings == []


def test_dtype_flow_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np


        def mix():
            acc = np.zeros(8)
            scores = np.zeros(8, dtype=np.float32)
            return acc * scores  # lint: disable=dtype-flow
        """,
        rules=["dtype-flow"],
    )
    assert findings == []


def test_dtype_flow_is_scoped_to_kernel_paths(tmp_path):
    findings = lint(
        tmp_path, "core/mod.py", """\
        import numpy as np


        def mix():
            acc = np.zeros(8)
            scores = np.zeros(8, dtype=np.float32)
            return acc * scores
        """,
        rules=["dtype-flow"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# Pass groups through the CLI
# ----------------------------------------------------------------------
def test_cli_passes_flow_skips_lexical_rules(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text("import os\n", encoding="utf-8")
    # unused-import is a syntax-pass rule; the flow group must not run it.
    assert main([str(path), "--no-baseline", "--passes", "flow"]) == 0
    capsys.readouterr()


def test_cli_passes_syntax_skips_flow_rules(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent("""\
        from repro.cluster.protocol import read_frame


        async def handle(reader, searcher):
            message = await read_frame(reader)
            return searcher.search(message.get("query"))
        """), encoding="utf-8")
    assert main([str(path), "--no-baseline", "--passes", "syntax"]) == 0
    assert main([str(path), "--no-baseline", "--passes", "flow"]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# Shipped tree: the lock graph is real, dumped, and acyclic
# ----------------------------------------------------------------------
def test_shipped_lock_graph_is_acyclic(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = main(["src/repro", "--no-baseline", "--rules", "lock-order",
                 "--format", "json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 0, document["findings"]
    graph = document["artifacts"]["lock_order"]
    assert graph["cycles"] == []
    # The serve/cluster layers genuinely nest locks; an empty edge set
    # would mean the analysis stopped seeing them.
    assert graph["edges"]
    # Independent acyclicity check: Kahn's algorithm must consume every
    # node that participates in an edge.
    successors = {}
    indegree = {}
    for edge in graph["edges"]:
        successors.setdefault(edge["held"], set()).add(edge["acquires"])
        indegree.setdefault(edge["held"], 0)
        indegree[edge["acquires"]] = indegree.get(edge["acquires"], 0) + 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    processed = 0
    while ready:
        node = ready.pop()
        processed += 1
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    assert processed == len(indegree)
