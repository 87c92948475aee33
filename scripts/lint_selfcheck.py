#!/usr/bin/env python
"""CI self-check for the whole-program flow lint passes.

A lint stage that silently stopped finding anything would pass CI
forever, so this script proves the flow passes still bite: it writes a
scratch tree containing one synthetic AB/BA lock-order cycle, two
wire-to-engine taint bypasses (a frame read directly, and a frame
handed to a handler by ``FrameShell``, which no call site in the tree
passes one) and one lazy package ``__init__`` whose
``__all__`` exports a name that neither its ``TYPE_CHECKING`` block
nor its lazy table provides, runs ``python -m repro.analysis`` over it
exactly the way the CI lint stage runs over ``src/repro``, and fails
unless the run (a) exits non-zero and (b) reports every expected rule,
the taint rule in both bypasses.

Run from the repository root (ci.sh does)::

    python scripts/lint_selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

LOCK_CYCLE = """\
import threading


class Ledger:
    def __init__(self):
        self._lock = threading.Lock()
        self.journal = Journal()

    def post(self):
        with self._lock:
            self.journal.append()


class Journal:
    def __init__(self):
        self._lock = threading.Lock()
        self.ledger: "Ledger" = None

    def append(self):
        with self._lock:
            pass

    def replay(self, ledger: "Ledger"):
        with self._lock:
            ledger.post()
"""

TAINT_BYPASS = """\
from repro.cluster.protocol import read_frame


class Searcher:
    def search(self, query, k=10):
        return []


async def handle(reader, searcher: Searcher):
    message = await read_frame(reader)
    return searcher.search(message.get("query"), k=message.get("k"))
"""

# The shape of a cluster node: the shell calls the handler with each
# frame it reads, so the sink is reachable only through the callback.
FRAME_BYPASS = """\
from repro.cluster.protocol import FrameShell


class Searcher:
    def search(self, query, k=10):
        return []


class Node:
    def __init__(self, searcher: Searcher):
        self.searcher = searcher
        self.shell = FrameShell(self._dispatch)

    async def _dispatch(self, message):
        return {"ok": True,
                "results": self.searcher.search(message.get("query"))}
"""

LAZY_INIT = """\
from typing import TYPE_CHECKING

from repro.startup import lazy_exports

if TYPE_CHECKING:
    from lazypkg.heavy import Heavy

__all__ = ["Heavy", "Missing"]

__getattr__, __dir__ = lazy_exports(__name__, {".heavy": ("Heavy",)})
"""


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lint-selfcheck-") as scratch:
        root = Path(scratch)
        (root / "lock_cycle.py").write_text(
            textwrap.dedent(LOCK_CYCLE), encoding="utf-8"
        )
        (root / "taint_bypass.py").write_text(
            textwrap.dedent(TAINT_BYPASS), encoding="utf-8"
        )
        (root / "frame_bypass.py").write_text(
            textwrap.dedent(FRAME_BYPASS), encoding="utf-8"
        )
        (root / "lazypkg").mkdir()
        (root / "lazypkg" / "__init__.py").write_text(
            LAZY_INIT, encoding="utf-8"
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(root),
             "--no-baseline", "--format", "json", "--fail-on", "error"],
            capture_output=True, text=True,
        )
        if result.returncode == 0:
            print("lint_selfcheck: FAIL — injected violations did not "
                  "fail the lint stage", file=sys.stderr)
            print(result.stdout, file=sys.stderr)
            return 1
        try:
            document = json.loads(result.stdout)
        except json.JSONDecodeError:
            print("lint_selfcheck: FAIL — lint did not emit JSON:",
                  file=sys.stderr)
            print(result.stdout, file=sys.stderr)
            print(result.stderr, file=sys.stderr)
            return 1
        rules = {finding["rule"] for finding in document["findings"]}
        missing = {"lock-order", "wire-taint", "all-mismatch"} - rules
        if missing:
            print(f"lint_selfcheck: FAIL — expected rules {sorted(missing)} "
                  f"did not fire (got {sorted(rules)})", file=sys.stderr)
            return 1
        tainted = {
            Path(finding["path"]).name for finding in document["findings"]
            if finding["rule"] == "wire-taint"
        }
        if tainted != {"taint_bypass.py", "frame_bypass.py"}:
            print("lint_selfcheck: FAIL — wire-taint missed a bypass "
                  f"(fired in {sorted(tainted)})", file=sys.stderr)
            return 1
        cycles = document["artifacts"]["lock_order"]["cycles"]
        if not cycles:
            print("lint_selfcheck: FAIL — lock-order artifacts report no "
                  "cycle for the injected AB/BA pair", file=sys.stderr)
            return 1
        print("lint_selfcheck: ok — injected lock-order cycle, both taint "
              "bypasses and lazy-export mismatch all detected "
              f"({len(document['findings'])} finding(s))")
        return 0


if __name__ == "__main__":
    sys.exit(main())
