"""The package version, and the entry points the traced benchmark wraps."""

import importlib.util
from pathlib import Path

import pytest

import fopid

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_version_matches_project_metadata():
    # manifest.json records fopid.__version__; the installed metadata uses pyproject's.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert fopid.__version__ == project["version"]


def test_traced_entry_points_resolve():
    # perfbench/run.py --trace replaces each (owner, attribute) in place; a
    # name that no longer resolves there fails the traced run.
    spec = importlib.util.spec_from_file_location("fopid_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attribute}"
        for owner, attribute, _ in spans.ENTRY_POINTS
        if not hasattr(owner, attribute)
    ]
    assert not missing, f"entry points that no longer resolve: {missing}"


def test_no_longdouble_in_the_package():
    # numpy's longdouble is plain float64 on Windows and on macOS arm64, so
    # code that needs its extra digits loses them there. The tests may still
    # use it as their truth.
    users = [
        path.name
        for path in sorted((ROOT / "src" / "fopid").glob("*.py"))
        if "longdouble" in path.read_text()
    ]
    assert not users, f"modules that use longdouble: {users}"
