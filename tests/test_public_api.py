"""Public-API consistency guards.

Every name in each package's ``__all__`` must resolve, and the core
everyday names must be importable from the top-level package — broken
re-exports are the kind of regression only a dedicated test catches.
"""

import importlib
import pkgutil

import pytest

import repro

#: Every package under ``repro``; most export lazily (PEP 562).
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"
        assert name in dir(package), f"{package_name}.{name} not listed"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import_binds_every_export(package_name):
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    missing = set(importlib.import_module(package_name).__all__) - set(
        namespace
    )
    assert not missing, f"{package_name}: {sorted(missing)}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__)), package_name


def test_top_level_everyday_names():
    import repro

    for name in ("Thetis", "Query", "Table", "DataLake",
                 "KnowledgeGraph", "Entity", "EntityMapping",
                 "ResultSet", "TableSearchEngine"):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)


def test_cli_entry_point_configured():
    import configparser
    from pathlib import Path

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text()
    assert 'thetis = "repro.cli:main"' in text


def test_exceptions_all_derive_from_base():
    import inspect

    from repro import exceptions

    for name, obj in inspect.getmembers(exceptions, inspect.isclass):
        if issubclass(obj, Exception) and obj is not exceptions.ReproError:
            assert issubclass(obj, exceptions.ReproError), name
