"""The package metadata behind the documented ``repro-pilot`` command."""

import importlib
from pathlib import Path

import pytest

import repro
from repro.cli import main

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture(scope="module")
def pyproject():
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_resolves_to_cli_main(pyproject):
    module, _, attr = pyproject["project"]["scripts"]["repro-pilot"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_src_layout_and_dependencies(pyproject):
    project = pyproject["project"]
    assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert set(project["dependencies"]) == {"numpy", "scipy"}
    assert project["optional-dependencies"]["yaml"] == ["pyyaml"]
    assert project["version"] == repro.__version__
