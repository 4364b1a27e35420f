"""The package's public names, and the entry points the traced benchmark wraps."""

import importlib.util
from pathlib import Path

import fopid

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_public_name_imports():
    namespace = {}
    exec("from fopid import *", namespace)  # AttributeError on a stale name
    assert set(fopid.__all__) <= namespace.keys()
    assert len(set(fopid.__all__)) == len(fopid.__all__)


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
