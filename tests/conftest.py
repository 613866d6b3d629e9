"""Shared test settings: every property test is derandomized (the same
examples on every run) and has no per-example deadline.  The published
report schema is read from the file the package ships."""

import json
from pathlib import Path

import pytest
from hypothesis import settings

import fnlslab

settings.register_profile("fnlslab", derandomize=True, deadline=None)
settings.load_profile("fnlslab")


@pytest.fixture(scope="session")
def report_schema():
    path = Path(fnlslab.__file__).resolve().parent / "schema" / "report-v1.json"
    return json.loads(path.read_text(encoding="utf-8"))
