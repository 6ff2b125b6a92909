"""The benchmark's workloads still produce the same report bytes.

`bench/run.py` hashes every JSON report of a pass, in case order, into a
report digest: tb and sb for each case, then the `--diff` report where the
case asks for one. This rebuilds that digest for each workload at two seeds,
at full scale, and pins it, so a change that moves any byte of any report
the benchmark makes fails here and not only when the benchmark runs. A
program parsed once must also give those bytes on every later run of it.
"""

import hashlib

import pytest

from conftest import CORPUS_DIR, bench_workloads
from seamcheck import diagnostics, runner
from seamcheck.machine import MachineConfig
from seamcheck.parser import parse_text


def _report(program, model: str, seed: int) -> bytes:
    """The JSON report of one run of `program`, a `--diff` run for model "diff", as the benchmark makes it."""
    if model == "diff":
        config = MachineConfig(model="tb", seed=seed)
        report = runner.differential_report(program, config, runner.run_differential(program, config))
    else:
        config = MachineConfig(model=model, seed=seed)
        report = runner.single_report(program, config, runner.run_program(program, config))
    return diagnostics.json_dumps(report).encode()


def _report_digest(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    for case in bench_workloads().build(workload, seed, str(CORPUS_DIR)):
        for model in ("tb", "sb", "diff") if case.diff else ("tb", "sb"):
            digest.update(_report(parse_text(case.text, case.name), model, seed))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "workload, seed, expected",
    [
        ("corpus", 1, "e74eec175f079634"),
        ("corpus", 11, "97266ac3e3d9e78c"),
        ("tags", 1, "3e57e3b130d70214"),
        ("tags", 11, "3487a624dc0cdc04"),
        ("buffers", 1, "b51f0e09ac722af9"),
        ("buffers", 11, "40412da960f95486"),
        ("crossings", 1, "c1d7a570db8c477b"),
        ("crossings", 11, "94878e0aafcc7651"),
    ],
)
def test_report_digest_of_each_workload_is_pinned(workload, seed, expected):
    assert _report_digest(workload, seed) == expected


@pytest.mark.parametrize("workload", ["corpus", "tags", "buffers", "crossings"])
def test_a_program_parsed_once_runs_again_with_nothing_carried_over(workload):
    # The machine keeps what it works out from a program's text with the program. Runs of one
    # parse under tb, sb, tb again and `--diff` must each give the bytes of a fresh parse's run.
    # The corpus workload holds every bundled scenario.
    for case in bench_workloads().build(workload, 1, str(CORPUS_DIR), scale=0.25):
        program = parse_text(case.text, case.name)
        for model in ("tb", "sb", "tb", "diff"):
            assert _report(program, model, 1) == _report(parse_text(case.text, case.name), model, 1), (case.name, model)
