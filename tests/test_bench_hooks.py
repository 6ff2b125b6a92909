"""The benchmark's tracer still finds every name it patches in seamcheck.

`bench/layers.py` wraps functions, methods and parameters by name. This
installs and removes its tracer, with no timing, so that renaming or
deleting one of those names fails here and not only in the benchmark's
own smoke test.
"""

import importlib.util
import itertools
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


_ONE_BORROW = """
host fn main()
  let x: i32 = 1
  let r: &mut i32 = &mut x
  *r = 2
  let v: i32 = x
  assert_eq v 2
end
"""


def test_tracer_counts_a_run_under_each_model():
    # A clock that ticks once per reading gives every span it closes a
    # nonzero length, so a time bucket shows whether its wrapper ran.
    from seamcheck import runner
    from seamcheck.diagnostics import Classification
    from seamcheck.machine import MachineConfig
    from seamcheck.parser import parse_text

    tracer = _load_layers().Tracer(itertools.count().__next__)
    try:
        tracer.install()
        for model in ("tb", "sb"):
            outcome = runner.run_program(parse_text(_ONE_BORROW), MachineConfig(model=model))
            assert outcome.classification is Classification.PASS
    finally:
        tracer.uninstall()
    counts = tracer.counts
    # Three integer and pointer locals per run, which memory reserves
    # rather than allocates; the retag materializes `x`, not `allocate`.
    # Only `x` is retagged, so only `x` builds a tracker: the write through
    # `r` and the read of `x` reach it, while the root write made before
    # the retag does not.
    assert counts["memory.allocations"] == 0
    for model in ("tb", "sb"):
        assert counts[f"{model}.retags"] == 1
        assert counts[f"{model}.accesses"] == 2
        assert tracer.times[f"{model}.create_s"] > 0
