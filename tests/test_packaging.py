import sys
import types
from pathlib import Path

import pytest

import nimgen


def test_every_exported_name_resolves():
    missing = [name for name in nimgen.__all__ if not hasattr(nimgen, name)]
    assert not missing


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(nimgen).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(nimgen.__all__) - {"__version__"} == public


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_pyproject_version_matches_package():
    import tomllib

    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == nimgen.__version__
