"""The traced benchmark wraps functions by name where their callers look
them up; renaming or removing one would break `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run(monkeypatch):
    """perfbench's run.py as a module, and its Tracer class."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from spans import Tracer

    return run, Tracer


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    run, Tracer = _load_run(monkeypatch)
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


def test_loop_free_build_is_timed_as_a_chamber_build(monkeypatch):
    """The regular workload reads `counting.chamber_build_s` as a median
    over ChamberTable.build calls, which LoopFreeTable.build must go
    through; an empty list would crash the traced run."""
    from nckp.counting import LoopFreeTable

    run, Tracer = _load_run(monkeypatch)
    tracer = Tracer()
    try:
        run.install(tracer)
        LoopFreeTable.build(3, 6)
    finally:
        tracer.restore()
    assert len(tracer.durations["counting.ChamberTable.build"]) == 1
    assert len(tracer.durations["counting.LoopFreeTable.build"]) == 1


def test_traced_sample_decodes_and_formats_through_the_wrapped_names(
        monkeypatch, capsys):
    """`bijection.decode_s` and `cli.format_s` sum the wrappers of
    sampler.decode_partition and Partition.to_text: every sampled line of
    either mode must go through both, or those metrics read 0."""
    from nckp import cli

    run, Tracer = _load_run(monkeypatch)
    for extra in ([], ["--regular"]):
        tracer = Tracer()
        try:
            run.install(tracer)
            assert cli.main(["sample", "--k", "3", "--n", "9", "--count", "5",
                             *extra]) == 0
        finally:
            tracer.restore()
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert tracer.calls("bijection.decode_partition") == 5, extra
        assert tracer.calls("diagrams.Partition.to_text") == 5, extra
