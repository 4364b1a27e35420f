"""The package version, and the entry points the traced benchmark wraps."""

import ast
import importlib.util
import sys
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
    # code that needs its extra digits loses them there, and a test that
    # takes it as its truth gates nothing there. This file is the one that
    # names it.
    paths = sorted((ROOT / "src" / "fopid").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    )
    users = [
        path.name
        for path in paths
        if path != Path(__file__).resolve() and "longdouble" in path.read_text()
    ]
    assert not users, f"files that use longdouble: {users}"


def test_package_imports_only_stdlib_numpy_and_yaml():
    # The README says that fopid depends only on numpy and PyYAML; other
    # packages may be installed beside it without being dependencies.
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    found = {}
    for path in sorted((ROOT / "src" / "fopid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(path.name)
    outside = {name: files for name, files in found.items() if name not in allowed}
    assert not outside, f"imports outside the standard library, numpy and yaml: {outside}"
    assert {"numpy", "yaml"} <= set(found)
