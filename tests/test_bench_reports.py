"""The benchmark's workloads still produce the same report bytes.

`bench/run.py` hashes every JSON report of a pass, in case order, into a
report digest: tb and sb for each case, then the `--diff` report where the
case asks for one. This rebuilds that digest for each workload at two seeds,
at full scale, and pins it, so a change that moves any byte of any report
the benchmark makes fails here and not only when the benchmark runs.
"""

import functools
import hashlib
import importlib.util
import sys

import pytest

from conftest import CORPUS_DIR, REPO_ROOT
from seamcheck import diagnostics, runner
from seamcheck.machine import MachineConfig
from seamcheck.parser import parse_text


@functools.cache
def _load_workloads():
    # `Case` is a dataclass, which looks its module up in `sys.modules`.
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO_ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _report_digest(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    for case in _load_workloads().build(workload, seed, str(CORPUS_DIR)):
        for model in ("tb", "sb", "diff") if case.diff else ("tb", "sb"):
            program = parse_text(case.text, case.name)
            if model == "diff":
                config = MachineConfig(model="tb", seed=seed)
                report = runner.differential_report(program, config, runner.run_differential(program, config))
            else:
                config = MachineConfig(model=model, seed=seed)
                report = runner.single_report(program, config, runner.run_program(program, config))
            digest.update(diagnostics.json_dumps(report).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "workload, seed, expected",
    [
        ("corpus", 1, "b3fdc1404d37b28c"),
        ("corpus", 11, "f9dae75821d95d80"),
        ("tags", 1, "6662e585a310a774"),
        ("tags", 11, "0009611318407f09"),
        ("buffers", 1, "b51f0e09ac722af9"),
        ("buffers", 11, "40412da960f95486"),
        ("crossings", 1, "c1d7a570db8c477b"),
        ("crossings", 11, "94878e0aafcc7651"),
    ],
)
def test_report_digest_of_each_workload_is_pinned(workload, seed, expected):
    assert _report_digest(workload, seed) == expected
