"""The benchmark's layer probes install on the package and restore it whole.

``perfbench/run.py --trace 1`` wraps named package functions with the
probes of ``perfbench/workloads.py``.  A target renamed or deleted in the
package breaks that run; this test catches it without running the
benchmark.
"""

from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def bindings(modules) -> dict:
    """(owner, name) -> value over the modules and the classes they define."""
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            out[mod, key] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[value, attr] = member
    return out


def test_probes_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracer import Tracer

    modules = workloads.traced_modules()
    before = bindings(modules)
    tracer = Tracer(modules)
    try:
        workloads.instrument(tracer)
        patched = list(tracer._undo)
        assert len(patched) > 30
        for owner, key, original in patched:
            assert getattr(owner, key) is not original, (owner, key)
    finally:
        tracer.restore()
    after = bindings(modules)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
    for owner, key, original in patched:
        assert getattr(owner, key) is original, (owner, key)
