"""Every benchmark trace probe must name something that still exists.

``benchmarks/perf/host.py`` wraps its :data:`PROBES` by dotted name and
only *warns* when a target is gone, so a rename under ``src/`` would
silently zero a per-layer metric in a traced run.  Resolving them here
makes that a tier-1 failure instead.
"""

import pytest

from benchmarks.perf import host
from repro.core.kernel import SegmentedCorpusIndex
from repro.system import Thetis


@pytest.mark.parametrize(
    "name,target", [(name, target) for name, target, _kind in host.PROBES]
)
def test_probe_target_resolves(name, target):
    owner, attribute = host._resolve(target)
    assert hasattr(owner, attribute), f"probe {name} lost {target}"


def test_setup_compile_span_fires_once(
    monkeypatch, sports_lake, sports_graph, sports_mapping
):
    """A fresh ``warm("types")`` compiles the entity index in one call,
    so the probe's span measures the whole cold compile."""
    probe = [
        entry for entry in host.PROBES
        if entry[0] == "core.kernel.segments.compile"
    ]
    # Restored at teardown: install() rebinds the class attribute.
    monkeypatch.setattr(
        SegmentedCorpusIndex, "compile",
        SegmentedCorpusIndex.__dict__["compile"],
    )
    recorder = host.Recorder()
    assert host.install(recorder, probe) == (
        ["core.kernel.segments.compile"], [],
    )
    with Thetis(sports_lake, sports_graph, sports_mapping) as thetis:
        thetis.warm("types")
    assert [span[0] for span in recorder.spans] == [
        "core.kernel.segments.compile"
    ]
