"""Child processes the tests spawn (`python -m asp_testkit`, the self-hosted
solver) import the same package as the tests, installed or not."""

import os
from pathlib import Path

import pytest

import asp_testkit

PACKAGE_ROOT = str(Path(asp_testkit.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def children_import_this_package(monkeypatch):
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [PACKAGE_ROOT, inherited])))
