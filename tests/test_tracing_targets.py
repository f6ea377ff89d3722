"""The layer tracer of `bench/tracing.py` rebinds names inside the package.

A refactor that drops or renames one of them makes `bench/run.py --trace 1`
crash, so every rebinding site is checked here.
"""

import importlib.util
from pathlib import Path

import segdial

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("segdial_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracing._targets(segdial)
        if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []
    assert isinstance(segdial.curation.InstanceAnnotation.__dict__["from_geometry"], classmethod)
