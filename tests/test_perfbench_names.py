"""The traced benchmark wraps functions by name where their callers look
them up; renaming or removing one would break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from spans import Tracer

    tracer = Tracer()
    try:
        run.install(tracer)
        run.install_lookups(tracer)
    finally:
        patched = list(tracer._patched)
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
