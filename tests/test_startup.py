"""Cold-start helpers: lazy package exports and the GC-paused loaders.

* a lazy package imports a submodule only on first use of one of its
  exports (``tests/test_public_api.py`` resolves every ``__all__``);
* ``thetis serve`` / ``cluster`` imports leave the benchmark generator,
  the evaluation stack, the analyzer, the keyword baselines, the label
  linker, RDF2Vec and the LSH tuner unimported;
* the three JSON loaders pause the cyclic GC and restore the caller's
  state on every exit path.
"""

import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datalake.io import load_lake, save_lake
from repro.exceptions import DataLakeError, KnowledgeGraphError, LinkingError
from repro.kg.io import load_graph, save_graph
from repro.linking.io import load_mapping, save_mapping
from repro.startup import gc_paused

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules no serving command needs (tests/benchmarks import them
#: explicitly; serving must not pull them in through a package).
NOT_SERVED = (
    "repro.benchgen",
    "repro.eval",
    "repro.analysis",
    "repro.baselines.bm25",
    "repro.linking.linker",
    "repro.embeddings.rdf2vec",
    "repro.lsh.tuning",
)


def _modules_after(code: str) -> set:
    """``repro`` modules loaded in a fresh interpreter after ``code``."""
    script = code + (
        "\nimport sys, json\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    return set(json.loads(output.splitlines()[-1]))


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def test_lazy_exports_load_on_first_use(tmp_path, monkeypatch):
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro.startup import lazy_exports\n"
        "__all__ = ['VALUE']\n"
        "__getattr__, __dir__ = lazy_exports(__name__, "
        "{'.heavy': ('VALUE',)})\n"
    )
    (package / "heavy.py").write_text("VALUE = 42\n")
    (package / "other.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("lazypkg")
    try:
        assert "lazypkg.heavy" not in sys.modules
        assert "VALUE" in dir(module)
        assert module.VALUE == 42
        assert "lazypkg.heavy" in sys.modules
        assert vars(module)["VALUE"] == 42  # cached: no second lookup
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            module.Nope  # noqa: B018
        from lazypkg import other  # submodules still import by name

        assert other.__name__ == "lazypkg.other"
    finally:
        for name in ("lazypkg", "lazypkg.heavy", "lazypkg.other"):
            sys.modules.pop(name, None)


# ----------------------------------------------------------------------
# What serving imports
# ----------------------------------------------------------------------
def test_serving_imports_leave_unserved_modules_out():
    loaded = _modules_after("import repro.cli, repro.serve, repro.cluster")
    assert not {
        module for module in loaded
        if module.startswith(NOT_SERVED)
    }


def test_a_serve_start_imports_every_exact_read_but_not_the_lsh_index():
    loaded = _modules_after(
        "import repro.cli\n"
        "args = repro.cli.build_parser().parse_args(\n"
        "    ['serve', '--graph=g', '--lake=l', '--mapping=m'])\n"
        "from repro.serve import ServeConfig, ThetisServer\n"
        "from repro.cluster import ClusterWorker, ClusterCoordinator\n"
    )
    assert {
        "repro.system",
        "repro.core.kernel.engine",
        "repro.core.kernel.union",
        "repro.core.kernel.join",
        "repro.serve.server",
        "repro.cluster.worker",
    } <= loaded
    assert not {
        module for module in loaded
        if module.startswith(NOT_SERVED + ("repro.lsh.index",
                                           "repro.lsh.schemes"))
    }


def test_a_coordinator_start_imports_no_engine():
    loaded = _modules_after(
        "import repro.cli\n"
        "repro.cli.build_parser().parse_args(['cluster', 'serve'])\n"
        "from repro.cluster import ClusterConfig, ClusterCoordinator\n"
    )
    assert "repro.cluster.coordinator" in loaded
    assert not {
        "repro.system", "repro.core.kernel.engine", "repro.cluster.worker",
        "repro.serve.server",
    } & loaded


def test_generate_and_lint_options_load_with_their_command():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(
        ["generate", "--out", "x", "--profile", "wt2019"]
    ).profile == "wt2019"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["generate", "--out", "x",
                                   "--profile", "nope"])
    assert exc.value.code == 2
    args = build_parser().parse_args(["lint", "--no-baseline"])
    assert args.no_baseline and args.fail_on == "warning"


# ----------------------------------------------------------------------
# GC pause
# ----------------------------------------------------------------------
@pytest.fixture()
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_gc_paused_restores_the_callers_state(restore_gc):
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()
    gc.enable()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("boom")
    assert gc.isenabled()


@pytest.fixture()
def saved(tmp_path, sports_graph, sports_lake, sports_mapping):
    paths = {
        "graph": tmp_path / "graph.json",
        "lake": tmp_path / "lake.json",
        "mapping": tmp_path / "mapping.json",
    }
    save_graph(sports_graph, paths["graph"])
    save_lake(sports_lake, paths["lake"])
    save_mapping(sports_mapping, paths["mapping"])
    return paths


LOADERS = {"graph": load_graph, "lake": load_lake, "mapping": load_mapping}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_decode_with_the_gc_paused(
    restore_gc, monkeypatch, saved, kind
):
    seen = []
    decode = json.loads

    def spy(text, *args, **kwargs):
        seen.append(gc.isenabled())
        return decode(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    gc.enable()
    LOADERS[kind](saved[kind])
    assert seen == [False]
    assert gc.isenabled()


def _broken(tmp_path, kind):
    """A file whose load raises a library error (not bad JSON)."""
    path = tmp_path / f"broken-{kind}.json"
    payload = {
        "graph": {"taxonomy": [], "entities": [],
                  "edges": [["kg:a", "p", "kg:b"]]},
        "lake": {"tables": [{"id": "T", "attributes": ["A", "B"],
                             "rows": [["x", "y"], ["z"]]}]},
        "mapping": {"links": [["T", 0, 0, "kg:a"], ["T", 0, 0, "kg:b"]]},
    }[kind]
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("failure", ["json", "library"])
def test_loaders_restore_the_gc_after_a_failed_load(
    restore_gc, tmp_path, kind, caller_enabled, failure
):
    if failure == "json":
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        expected = json.JSONDecodeError
    else:
        path = _broken(tmp_path, kind)
        expected = {"graph": KnowledgeGraphError, "lake": DataLakeError,
                    "mapping": LinkingError}[kind]
    (gc.enable if caller_enabled else gc.disable)()
    with pytest.raises(expected):
        LOADERS[kind](path)
    assert gc.isenabled() is caller_enabled
