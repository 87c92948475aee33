"""Per-rule fixtures for the repro.analysis rule packs.

Every shipped rule gets at least one triggering fixture, one passing
fixture, and one pragma-suppressed fixture.  Fixtures are written to
``tmp_path`` under subdirectories that satisfy each rule's path scope
(``kernel/`` for the kernel-safety pack, ``core/`` for the scoped
determinism rules).
"""

import textwrap

import pytest

from repro.analysis.engine import LintEngine
from repro.analysis.rules import ALL_RULES, get_rules, rules_by_id


def lint(tmp_path, relpath, text, rules=None):
    """Lint one dedented fixture file; return the active findings."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    engine = LintEngine(get_rules(rules) if rules else ALL_RULES)
    return engine.run([path]).findings


def rule_ids(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# Rule catalog sanity
# ----------------------------------------------------------------------
def test_catalog_is_well_formed():
    from repro.analysis.rules import flow_rules

    registry = rules_by_id()
    # The flow pack contributes the ids only it defines (lock-order,
    # wire-taint, dtype-flow); the lexical pack keeps every one of its
    # own, including guarded-attr-outside-lock.
    assert len(registry) == len(ALL_RULES) + len(flow_rules())
    for rule in ALL_RULES + flow_rules():
        assert rule.id
        assert rule.severity in ("info", "warning", "error")
        assert rule.description


def test_get_rules_unknown_id_raises():
    from repro.exceptions import AnalysisError

    with pytest.raises(AnalysisError):
        get_rules(["no-such-rule"])


# ----------------------------------------------------------------------
# guarded-attr-outside-lock
# ----------------------------------------------------------------------
GUARDED_CLASS = """\
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self._data = {{}}  # guarded-by: _lock

        def read(self):
            {body}
"""


def test_guarded_attr_flags_unlocked_access(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_CLASS.format(body="return self._data"),
        rules=["guarded-attr-outside-lock"],
    )
    assert rule_ids(findings) == ["guarded-attr-outside-lock"]
    assert "_data" in findings[0].message
    assert findings[0].severity == "error"


def test_guarded_attr_allows_locked_access_and_init(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_CLASS.format(
            body="with self._lock:\n                return self._data"
        ),
        rules=["guarded-attr-outside-lock"],
    )
    assert findings == []


def test_guarded_attr_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_CLASS.format(
            body="return self._data  # lint: disable=guarded-attr-outside-lock"
        ),
        rules=["guarded-attr-outside-lock"],
    )
    assert findings == []


def test_guarded_attr_nested_function_loses_the_lock(tmp_path):
    # A closure defined under the lock runs later, without it.
    findings = lint(
        tmp_path, "mod.py",
        GUARDED_CLASS.format(
            body=(
                "with self._lock:\n"
                "                def later():\n"
                "                    return self._data\n"
                "                return later"
            )
        ),
        rules=["guarded-attr-outside-lock"],
    )
    assert rule_ids(findings) == ["guarded-attr-outside-lock"]


# ----------------------------------------------------------------------
# lock-in-async
# ----------------------------------------------------------------------
def test_lock_in_async_flags_sync_with(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        class Server:
            async def handle(self):
                with self._lock:
                    return 1
        """,
        rules=["lock-in-async"],
    )
    assert rule_ids(findings) == ["lock-in-async"]


def test_lock_in_async_ignores_sync_defs_and_async_locks(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        class Server:
            def handle_sync(self):
                with self._lock:
                    return 1

            async def handle(self):
                async with self._lock:
                    return 1

            async def stream(self, path):
                with self.tracker:
                    return 2
        """,
        rules=["lock-in-async"],
    )
    assert findings == []


def test_lock_in_async_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        class Server:
            async def handle(self):
                with self._lock:  # lint: disable=lock-in-async
                    return 1
        """,
        rules=["lock-in-async"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# blocking-call-in-async
# ----------------------------------------------------------------------
def test_blocking_call_in_async_flags_sleep_and_open(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import time

        async def handle():
            time.sleep(1)
            with open("x") as f:
                return f.read()
        """,
        rules=["blocking-call-in-async"],
    )
    assert rule_ids(findings) == ["blocking-call-in-async"] * 2


def test_blocking_call_allows_sync_defs_and_executor_helpers(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import asyncio
        import time

        def sync_work():
            time.sleep(1)

        async def handle(loop):
            def in_executor():
                return open("x").read()
            await loop.run_in_executor(None, in_executor)
            await asyncio.sleep(1)
        """,
        rules=["blocking-call-in-async"],
    )
    assert findings == []


def test_blocking_call_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import time

        async def handle():
            time.sleep(1)  # lint: disable=blocking-call-in-async
        """,
        rules=["blocking-call-in-async"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# unseeded-random
# ----------------------------------------------------------------------
def test_unseeded_random_flags_global_state_and_seedless_rng(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import random
        import numpy as np

        def roll():
            a = random.random()
            b = np.random.default_rng()
            c = np.random.shuffle([1, 2])
            return a, b, c
        """,
        rules=["unseeded-random"],
    )
    assert rule_ids(findings) == ["unseeded-random"] * 3


def test_unseeded_random_allows_seeded_instances(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import random
        import numpy as np

        def roll(seed):
            rng = np.random.default_rng(seed)
            pyrng = random.Random(0)
            return rng.random(), pyrng.random()
        """,
        rules=["unseeded-random"],
    )
    assert findings == []


def test_unseeded_random_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import random

        def roll():
            return random.random()  # lint: disable=unseeded-random
        """,
        rules=["unseeded-random"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# unordered-set-order  (scoped to core/ and lsh/)
# ----------------------------------------------------------------------
def test_unordered_set_order_flags_core_sinks(tmp_path):
    findings = lint(
        tmp_path, "core/mod.py", """\
        def keys(mapping):
            ids = list({x for x in mapping})
            label = ",".join({"a", "b"})
            return ids, label
        """,
        rules=["unordered-set-order"],
    )
    assert rule_ids(findings) == ["unordered-set-order"] * 2


def test_unordered_set_order_allows_sorted_and_out_of_scope(tmp_path):
    clean = lint(
        tmp_path, "core/clean.py", """\
        def keys(mapping):
            return sorted({x for x in mapping})
        """,
        rules=["unordered-set-order"],
    )
    assert clean == []
    out_of_scope = lint(
        tmp_path, "util/mod.py", """\
        def keys(mapping):
            return list({x for x in mapping})
        """,
        rules=["unordered-set-order"],
    )
    assert out_of_scope == []


def test_unordered_set_order_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "core/mod.py", """\
        def keys(mapping):
            return list({x for x in mapping})  # lint: disable=unordered-set-order
        """,
        rules=["unordered-set-order"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# wall-clock-in-scoring  (scoped to core/)
# ----------------------------------------------------------------------
def test_wall_clock_flags_time_time_in_core(tmp_path):
    findings = lint(
        tmp_path, "core/mod.py", """\
        import time

        def score():
            return time.time()
        """,
        rules=["wall-clock-in-scoring"],
    )
    assert rule_ids(findings) == ["wall-clock-in-scoring"]


def test_wall_clock_allows_perf_counter_and_out_of_scope(tmp_path):
    clean = lint(
        tmp_path, "core/clean.py", """\
        import time

        def score():
            return time.perf_counter()
        """,
        rules=["wall-clock-in-scoring"],
    )
    assert clean == []
    out_of_scope = lint(
        tmp_path, "serve/mod.py", """\
        import time

        def stamp():
            return time.time()
        """,
        rules=["wall-clock-in-scoring"],
    )
    assert out_of_scope == []


def test_wall_clock_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "core/mod.py", """\
        import time

        def score():
            return time.time()  # lint: disable=wall-clock-in-scoring
        """,
        rules=["wall-clock-in-scoring"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# missing-dtype  (scoped to kernel/)
# ----------------------------------------------------------------------
def test_missing_dtype_flags_bare_allocations(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def alloc(n):
            return np.zeros(n)
        """,
        rules=["missing-dtype"],
    )
    assert rule_ids(findings) == ["missing-dtype"]


def test_missing_dtype_allows_explicit_dtype_and_out_of_scope(tmp_path):
    clean = lint(
        tmp_path, "kernel/clean.py", """\
        import numpy as np

        def alloc(n):
            return np.zeros(n, dtype=np.float64)
        """,
        rules=["missing-dtype"],
    )
    assert clean == []
    out_of_scope = lint(
        tmp_path, "eval/mod.py", """\
        import numpy as np

        def alloc(n):
            return np.zeros(n)
        """,
        rules=["missing-dtype"],
    )
    assert out_of_scope == []


def test_missing_dtype_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def alloc(n):
            return np.zeros(n)  # lint: disable=missing-dtype
        """,
        rules=["missing-dtype"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# np-array-copy  (scoped to kernel/)
# ----------------------------------------------------------------------
def test_np_array_copy_flags_copy_of_existing_array(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def view(existing):
            return np.array(existing)
        """,
        rules=["np-array-copy"],
    )
    assert rule_ids(findings) == ["np-array-copy"]


def test_np_array_copy_allows_asarray_literals_and_explicit_copy(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def build(existing):
            a = np.asarray(existing)
            b = np.array([1, 2, 3])
            c = np.array(existing, copy=True)
            return a, b, c
        """,
        rules=["np-array-copy"],
    )
    assert findings == []


def test_np_array_copy_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def snapshot(existing):
            return np.array(existing)  # lint: disable=np-array-copy
        """,
        rules=["np-array-copy"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# float-dtype-mix  (scoped to kernel/)
# ----------------------------------------------------------------------
def test_float_dtype_mix_flags_mixed_arithmetic(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def mix(n):
            narrow = np.zeros(n, dtype=np.float32)
            wide = np.zeros(n, dtype=np.float64)
            return narrow + wide
        """,
        rules=["float-dtype-mix"],
    )
    assert rule_ids(findings) == ["float-dtype-mix"]
    assert "float32" in findings[0].message


def test_float_dtype_mix_allows_matching_widths(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def add(n):
            left = np.zeros(n, dtype=np.float64)
            right = np.zeros(n)
            return left + right
        """,
        rules=["float-dtype-mix"],
    )
    assert findings == []


def test_float_dtype_mix_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def mix(n):
            narrow = np.zeros(n, dtype=np.float32)
            wide = np.zeros(n, dtype=np.float64)
            return narrow + wide  # lint: disable=float-dtype-mix
        """,
        rules=["float-dtype-mix"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# core/assignment.py: the enumeration both kernels run
# ----------------------------------------------------------------------
SHARED_TENSOR_CODE = """\
    import numpy as np

    def pad(k, n, existing):
        padding = np.zeros((k, k - n))
        copied = np.array(existing)
        low = np.zeros(3, dtype=np.float32)
        high = np.zeros(3, dtype=np.float64)
        return padding, copied, low + high
    """


def test_kernel_safety_covers_the_assignment_module(tmp_path):
    rules = ["missing-dtype", "np-array-copy", "float-dtype-mix"]
    findings = lint(tmp_path, "core/assignment.py", SHARED_TENSOR_CODE, rules)
    assert sorted(rule_ids(findings)) == sorted(rules)
    assert lint(tmp_path, "core/search.py", SHARED_TENSOR_CODE, rules) == []


# ----------------------------------------------------------------------
# memmap-explicit  (scoped to kernel/)
# ----------------------------------------------------------------------
def test_memmap_explicit_flags_missing_keywords(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def open_index(path):
            return np.memmap(path, dtype=np.uint8)
        """,
        rules=["memmap-explicit"],
    )
    assert rule_ids(findings) == ["memmap-explicit"]
    assert "mode=" in findings[0].message
    assert "offset=" in findings[0].message
    assert "shape=" in findings[0].message


def test_memmap_explicit_allows_full_spec_and_out_of_scope(tmp_path):
    clean = lint(
        tmp_path, "kernel/clean.py", """\
        import numpy as np

        def open_index(path, size):
            return np.memmap(
                path, dtype=np.uint8, mode="r", offset=0, shape=(size,)
            )
        """,
        rules=["memmap-explicit"],
    )
    assert clean == []
    out_of_scope = lint(
        tmp_path, "eval/mod.py", """\
        import numpy as np

        def open_blob(path):
            return np.memmap(path)
        """,
        rules=["memmap-explicit"],
    )
    assert out_of_scope == []


def test_memmap_explicit_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "kernel/mod.py", """\
        import numpy as np

        def open_index(path):
            return np.memmap(path, mode="r")  # lint: disable=memmap-explicit
        """,
        rules=["memmap-explicit"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# all-mismatch
# ----------------------------------------------------------------------
def test_all_mismatch_flags_undefined_and_duplicate_exports(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        __all__ = ["exists", "missing", "exists"]

        def exists():
            return 1
        """,
        rules=["all-mismatch"],
    )
    messages = " | ".join(finding.message for finding in findings)
    assert "missing" in messages
    assert "more than once" in messages
    assert all(finding.severity == "error" for finding in findings)


def test_all_mismatch_allows_defined_and_conditional_names(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        __all__ = ["exists", "MaybeClass", "imported"]

        from os.path import join as imported

        def exists():
            return 1

        try:
            class MaybeClass:
                pass
        except ImportError:
            MaybeClass = None
        """,
        rules=["all-mismatch"],
    )
    assert findings == []


def test_all_mismatch_file_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        # lint: disable-file=all-mismatch
        __all__ = ["missing"]
        """,
        rules=["all-mismatch"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# foreign-exception
# ----------------------------------------------------------------------
def test_foreign_exception_flags_builtin_and_local_raises(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        class LocalError(Exception):
            pass

        def check(value):
            if value < 0:
                raise ValueError("negative")
            if value > 10:
                raise LocalError("too big")
        """,
        rules=["foreign-exception"],
    )
    assert rule_ids(findings) == ["foreign-exception"] * 2


def test_foreign_exception_allows_repro_and_idiomatic_builtins(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        from repro.exceptions import ConfigurationError

        def check(value):
            if value < 0:
                raise ConfigurationError("negative")
            raise NotImplementedError
        """,
        rules=["foreign-exception"],
    )
    assert findings == []


def test_foreign_exception_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        def check(value):
            if value < 0:
                raise ValueError("negative")  # lint: disable=foreign-exception
        """,
        rules=["foreign-exception"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# unused-import
# ----------------------------------------------------------------------
def test_unused_import_flags_dead_imports(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import os
        from json import dumps

        def work():
            return 1
        """,
        rules=["unused-import"],
    )
    assert rule_ids(findings) == ["unused-import"] * 2


def test_unused_import_counts_all_exports_and_attribute_roots(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        from __future__ import annotations

        import os
        from json import dumps

        __all__ = ["dumps"]

        def work():
            return os.getcwd()
        """,
        rules=["unused-import"],
    )
    assert findings == []


def test_unused_import_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        import os  # lint: disable=unused-import
        """,
        rules=["unused-import"],
    )
    assert findings == []


# ----------------------------------------------------------------------
# dead-private-helper
# ----------------------------------------------------------------------
def test_dead_private_helper_flags_unreferenced_def(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        def _never_called():
            return 1

        def public():
            return 2
        """,
        rules=["dead-private-helper"],
    )
    assert rule_ids(findings) == ["dead-private-helper"]
    assert "_never_called" in findings[0].message


def test_dead_private_helper_allows_referenced_and_dunder(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        def _used():
            return 1

        def __dunder_like():
            return 2

        def public():
            return _used()
        """,
        rules=["dead-private-helper"],
    )
    assert findings == []


def test_dead_private_helper_def_line_pragma_suppresses(tmp_path):
    findings = lint(
        tmp_path, "mod.py", """\
        def _kept_for_api():  # lint: disable=dead-private-helper
            return 1
        """,
        rules=["dead-private-helper"],
    )
    assert findings == []
