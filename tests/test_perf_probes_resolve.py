"""Every benchmark trace probe must name something that still exists.

``benchmarks/perf/host.py`` wraps its :data:`PROBES` by dotted name and
only *warns* when a target is gone, so a rename under ``src/`` would
silently zero a per-layer metric in a traced run.  Resolving them here
makes that a tier-1 failure instead.
"""

import pytest

from benchmarks.perf import host


@pytest.mark.parametrize(
    "name,target", [(name, target) for name, target, _kind in host.PROBES]
)
def test_probe_target_resolves(name, target):
    owner, attribute = host._resolve(target)
    assert hasattr(owner, attribute), f"probe {name} lost {target}"
