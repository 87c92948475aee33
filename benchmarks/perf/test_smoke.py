"""The command prints exactly what ``BENCHMARK.json`` declares.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (tier-1
collects ``tests/`` only); takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import host, metrics
from benchmarks.perf.loadgen import Window
from benchmarks.perf.trace import Trace
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(*arguments: str) -> str:
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout


def _declared(section: str) -> dict:
    return {entry["name"]: entry for entry in DECLARED[section]}


def test_code_and_benchmark_json_declare_the_same_things():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == WORKLOADS
    assert DECLARED["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in metrics.END_TO_END]
    assert DECLARED["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in metrics.PER_LAYER]
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names + list(WORKLOADS))


@pytest.fixture(scope="module")
def smoke_output() -> str:
    return _run("--smoke", "--seed", "17")


def test_smoke_prints_exactly_the_declared_names(smoke_output):
    printed: dict = {}
    for line in smoke_output.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()
            printed.setdefault(workload, {})[name] = (float(value), unit)
    assert list(printed) == list(WORKLOADS)
    expected = {**_declared("end_to_end"), **_declared("per_layer")}
    for workload, values in printed.items():
        assert set(values) == set(expected), workload
        for name, (value, unit) in values.items():
            assert NAME.match(name)
            assert math.isfinite(value), (workload, name)
            assert unit == expected[name]["unit"]
        for name in _declared("end_to_end"):
            assert values[name][0] > 0, (workload, name)
    assert "failed 0\n" in smoke_output
    assert re.search(r"phase traced window: sent \d+ ok \d+ failed 0",
                     smoke_output)
    assert "0 failed requests" in smoke_output


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_one_workload_ends_with_the_contract_line(trace, section):
    last = _run("--workload", "entity_hot_1t", "--seed", "3", "--smoke",
                "--trace", trace).strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared(section)
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]["unit"]
        assert math.isfinite(entry["value"])


def test_unresolvable_probe_warns_and_its_metric_is_omitted(tmp_path, capsys):
    recorder = host.Recorder()
    resolved, missing = host.install(recorder, [
        ("serve.http.encode", "repro.serve.http:HttpResponse.no_such", "call"),
        ("core.parallel.merge_topk", "repro.no_such_module:merge", "call"),
    ])
    assert resolved == []
    assert missing == ["serve.http.encode", "core.parallel.merge_topk"]
    assert "warning: probe serve.http.encode" in capsys.readouterr().err

    dump = tmp_path / "spans.jsonl"
    recorder.dump(str(dump), resolved, missing)
    values = metrics.spans(Trace([dump], 0.0, 1.0), Window([], 0.0, 1.0), 0.0)
    assert values["serve.http.encode.busy_ms"] is None
    assert values["core.parallel.merge_topk.busy_ms"] is None
    assert values["serve.http.read_request.busy_ms"] == 0.0
