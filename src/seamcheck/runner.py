"""Drive scenarios: single runs, model comparison, corpus checking.

A single run executes one scenario under one borrow model. A differential
run executes the same scenario under both models with the same seed and
labels the disagreement, which is the interesting case: a bug one model
rejects and the other tolerates. Corpus mode replays a directory of
annotated scenarios and verifies each outcome against its annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .diagnostics import (
    Classification,
    DedupKey,
    Outcome,
    OutcomeTag,
    dedup,
    outcome_key,
)
from .ir import ScenarioProgram
from .machine import MachineConfig, run_program


def outcome_tag(outcome: Outcome) -> OutcomeTag:
    """Collapse a run outcome to the tag vocabulary used by annotations."""
    c = outcome.classification
    if c is Classification.BUG:
        kind = outcome.bug_kind
        return OutcomeTag(kind.value) if kind is not None else OutcomeTag.PASS
    if c is Classification.UNSUPPORTED:
        return OutcomeTag.UNSUPPORTED
    if c is Classification.TIMEOUT:
        return OutcomeTag.TIMEOUT
    if outcome.leaks:
        return OutcomeTag.MEMORY_LEAK
    return OutcomeTag.PASS


# Exit code per result class, least severe first: when runs combine, the
# code of the most severe class present wins (violations, then unsupported,
# timeouts, leaks, clean).
_EXIT_CODES = {"pass": 0, "leaks": 4, "timeout": 3, "unsupported": 2, "bug": 1}
_RANK = {code: rank for rank, code in enumerate(_EXIT_CODES.values())}


def exit_code(outcome: Outcome) -> int:
    c = outcome.classification
    return _EXIT_CODES["leaks" if c is Classification.PASS and outcome.leaks else c.value]


def worst_exit_code(codes: Iterable[int]) -> int:
    """The exit code that stands for several runs; 0 when there are none."""
    return max(codes, key=_RANK.__getitem__, default=0)


def _model_report(outcome: Outcome) -> dict:
    """The part of a report that one model's run fills in."""
    return {
        "outcome": outcome_tag(outcome).value,
        "dedup_key": outcome_key(outcome),
        "result": {**vars(outcome), "bug_kind": outcome.bug_kind},
    }


def single_report(program: ScenarioProgram, config: MachineConfig, outcome: Outcome) -> dict:
    return {
        "scenario": program.path,
        "model": config.model,
        "seed": config.seed,
        "config": config,
        "exit_code": exit_code(outcome),
        **_model_report(outcome),
    }


@dataclass(slots=True)
class DifferentialResult:
    tb: Outcome
    sb: Outcome

    @property
    def verdict(self) -> str:
        if self.tb.is_violation == self.sb.is_violation:
            return "agree"
        return "sb-only-violation" if self.sb.is_violation else "tb-only-violation"

    @property
    def exit_code(self) -> int:
        return worst_exit_code((exit_code(self.tb), exit_code(self.sb)))


def run_differential(program: ScenarioProgram, config: MachineConfig) -> DifferentialResult:
    tb = run_program(program, replace(config, model="tb"))
    sb = run_program(program, replace(config, model="sb"))
    return DifferentialResult(tb=tb, sb=sb)


def differential_report(
    program: ScenarioProgram, config: MachineConfig, result: DifferentialResult
) -> dict:
    return {
        "scenario": program.path,
        "seed": config.seed,
        "config": {**vars(config), "model": "both"},
        "verdict": result.verdict,
        "exit_code": result.exit_code,
        "tb": _model_report(result.tb),
        "sb": _model_report(result.sb),
    }


@dataclass(frozen=True)
class CorpusEntry:
    """One annotation check: a scenario's expected and actual outcome under one model."""

    scenario: str
    model: str
    expected: str
    actual: str
    ok: bool


@dataclass(frozen=True)
class CorpusResult:
    entries: tuple[CorpusEntry, ...]
    summary_model: str = "tb"
    outcomes: tuple[tuple[str, Outcome], ...] = ()  # one per scenario, summary model

    @property
    def failures(self) -> tuple[CorpusEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def counts(self) -> dict[str, int]:
        """Scenarios per classification under the summary model; sums to len(outcomes)."""
        out = {c.value: 0 for c in Classification}
        for _, outcome in self.outcomes:
            out[outcome.classification.value] += 1
        return out

    @property
    def dedup_groups(self) -> dict[DedupKey, list[str]]:
        return dedup(self.outcomes)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def run_corpus(programs: list[ScenarioProgram], config: MachineConfig) -> CorpusResult:
    """Check every scenario against its annotations.

    A scenario is checked under each model it declares an expectation for.
    One with no annotations at all is expected to run clean under both
    models; that makes an unannotated file a regression tripwire rather
    than a silent skip. Summary counts and dedup groups come from one run
    per scenario under the configured model.
    """
    entries: list[CorpusEntry] = []
    outcomes: list[tuple[str, Outcome]] = []
    memo: dict[tuple[str, str], Outcome] = {}

    def run(path: str, program: ScenarioProgram, model: str) -> Outcome:
        key = (path, model)
        if key not in memo:
            memo[key] = run_program(program, replace(config, model=model))
        return memo[key]

    for program in sorted(programs, key=lambda p: p.path):
        path = program.path
        for model in ("tb", "sb"):
            expected = program.expectation_for(model)
            if expected is None:
                if program.expectations:
                    continue
                expected = OutcomeTag.PASS
            actual = outcome_tag(run(path, program, model))
            entries.append(CorpusEntry(path, model, expected.value, actual.value, expected is actual))
        outcomes.append((path, run(path, program, config.model)))
    return CorpusResult(
        entries=tuple(entries), summary_model=config.model, outcomes=tuple(outcomes)
    )


def corpus_report(result: CorpusResult) -> dict:
    return {
        "checks": result.entries,
        "summary": {
            "model": result.summary_model,
            "counts": result.counts,
            "dedup_groups": [
                {"key": k, "scenarios": paths}
                for k, paths in result.dedup_groups.items()
            ],
        },
        "total": len(result.entries),
        "mismatches": len(result.failures),
        "exit_code": result.exit_code,
    }
