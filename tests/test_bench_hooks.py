"""The benchmark's tracer still finds every name it patches in seamcheck.

`bench/layers.py` wraps functions, methods and parameters by name. This
installs and removes its tracer, with no timing, so that renaming or
deleting one of those names fails here and not only in the benchmark's
own smoke test.
"""

import importlib.util
import time

from conftest import REPO_ROOT


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", REPO_ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    from seamcheck.memory import Memory

    original = Memory.read_blob
    tracer = _load_layers().Tracer(time.thread_time)
    try:
        tracer.install()
        assert Memory.read_blob is not original
    finally:
        tracer.uninstall()
    assert Memory.read_blob is original
