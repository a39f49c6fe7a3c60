import importlib
import sys
import types
from pathlib import Path

import pytest

import nimgen
import nimgen.errors


def test_every_exported_name_resolves():
    missing = [name for name in nimgen.__all__ if not hasattr(nimgen, name)]
    assert not missing


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(nimgen).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(nimgen.__all__) - {"__version__"} == public


def test_error_list_matches_the_error_module():
    defined = {name for name, value in vars(nimgen.errors).items()
               if isinstance(value, type) and issubclass(value, Exception)
               and value.__module__ == "nimgen.errors"}
    assert set(nimgen.errors.__all__) == defined
    assert len(nimgen.errors.__all__) == len(defined)
    assert defined <= set(nimgen.__all__)


def _project() -> dict:
    import tomllib

    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        return tomllib.load(f)["project"]


needs_tomllib = pytest.mark.skipif(sys.version_info < (3, 11),
                                   reason="tomllib needs Python 3.11")


@needs_tomllib
def test_pyproject_version_matches_package():
    assert _project()["version"] == nimgen.__version__


@needs_tomllib
def test_console_scripts_resolve_to_callables():
    # tier-1 imports from src, so nothing else runs the installed entry points
    scripts = _project()["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for name in attr.split("."):
            obj = getattr(obj, name)
        assert callable(obj), target
