"""The benchmark's traced run can wrap every function it names.

bench/layers.py looks package functions up by module attribute when its
Probe is built, so a rename in src/ breaks `python3 bench/run.py --trace 1`
only once a traced round starts.  Building the Probe here installs every
wrap and fails on the first name that is gone.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_probe_installs_and_removes_every_wrap(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    probe = layers.Probe()
    saved = list(probe.tracer._saved)
    probe.tracer.uninstall()
    for module, attr, original in saved:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} left wrapped"
