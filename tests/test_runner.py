"""Run orchestration: exit codes, differential verdicts, corpus checking."""

import json
from dataclasses import asdict

from seamcheck.diagnostics import Classification, Diagnostic, DiagnosticKind, Outcome, json_dumps
from seamcheck.machine import MachineConfig
from seamcheck.parser import parse_file, parse_text
from seamcheck.runner import (
    DifferentialResult,
    corpus_report,
    differential_report,
    exit_code,
    outcome_tag,
    run_corpus,
    run_differential,
    run_program,
    single_report,
)

from conftest import corpus_path

_CLEAN = Outcome(Classification.PASS)
_LEAKY = Outcome(
    Classification.PASS,
    leaks=(Diagnostic(DiagnosticKind.MEMORY_LEAK, "alloc#1 (b): 8 bytes never freed"),),
)
_BUG = Outcome(
    Classification.BUG,
    diagnostics=(Diagnostic(DiagnosticKind.EXPIRED_PERMISSION, "boom"),),
)
_UNSUPPORTED = Outcome(Classification.UNSUPPORTED, note="join of unknown handle")
_TIMEOUT = Outcome(Classification.TIMEOUT, note="deadlock: every thread is blocked")


def _parsed(*paths):
    return [parse_file(str(p)) for p in paths]


def test_exit_codes_per_classification():
    assert exit_code(_CLEAN) == 0
    assert exit_code(_BUG) == 1
    assert exit_code(_UNSUPPORTED) == 2
    assert exit_code(_TIMEOUT) == 3
    assert exit_code(_LEAKY) == 4


def test_outcome_tag_vocabulary():
    assert outcome_tag(_CLEAN).value == "pass"
    assert outcome_tag(_BUG).value == "expired-permission"
    assert outcome_tag(_UNSUPPORTED).value == "unsupported"
    assert outcome_tag(_TIMEOUT).value == "timeout"
    assert outcome_tag(_LEAKY).value == "memory-leak"


def test_config_dict_field_names_are_frozen():
    cfg = asdict(MachineConfig(model="sb", seed=7, steps=10))
    assert cfg == {
        "model": "sb",
        "seed": 7,
        "steps": 10,
        "symbolic_alignment": True,
        "strict_provenance": False,
        "permissive_foreign_loads": True,
        "zero_init_foreign": False,
        "unique_as_mutable": True,
    }


def test_single_report_shape():
    program = parse_text("host fn main()\nend\n", path="small.sc")
    config = MachineConfig()
    outcome = run_program(program, config)
    report = json.loads(json_dumps(single_report(program, config, outcome)))
    assert report["scenario"] == "small.sc"
    assert report["model"] == "tb"
    assert report["outcome"] == "pass"
    assert report["exit_code"] == 0
    assert report["result"]["classification"] == "pass"
    assert set(report["dedup_key"]) == {"exit_class", "normalized_log", "trace_fingerprint"}
    assert report["config"]["model"] == "tb"


def test_differential_verdicts():
    assert DifferentialResult(tb=_CLEAN, sb=_CLEAN).verdict == "agree"
    assert DifferentialResult(tb=_BUG, sb=_BUG).verdict == "agree"
    assert DifferentialResult(tb=_CLEAN, sb=_BUG).verdict == "sb-only-violation"
    assert DifferentialResult(tb=_BUG, sb=_CLEAN).verdict == "tb-only-violation"


def test_differential_exit_code_takes_the_severe_side():
    assert DifferentialResult(tb=_CLEAN, sb=_BUG).exit_code == 1
    assert DifferentialResult(tb=_LEAKY, sb=_CLEAN).exit_code == 4
    assert DifferentialResult(tb=_UNSUPPORTED, sb=_BUG).exit_code == 1
    assert DifferentialResult(tb=_TIMEOUT, sb=_LEAKY).exit_code == 3
    assert DifferentialResult(tb=_CLEAN, sb=_CLEAN).exit_code == 0


def test_run_differential_splits_on_model():
    program = parse_text(open(corpus_path("offset_beyond_borrow.sc")).read(), path="o.sc")
    result = run_differential(program, MachineConfig())
    assert result.verdict == "sb-only-violation"
    assert result.tb.classification is Classification.PASS
    assert result.sb.classification is Classification.BUG


def test_differential_report_shape():
    program = parse_text("host fn main()\nend\n", path="d.sc")
    config = MachineConfig()
    report = differential_report(program, config, run_differential(program, config))
    assert report["verdict"] == "agree"
    assert report["config"]["model"] == "both"
    assert report["tb"]["outcome"] == "pass"
    assert report["sb"]["outcome"] == "pass"
    assert report["exit_code"] == 0


def test_corpus_run_checks_annotations(tmp_path):
    good = tmp_path / "good.sc"
    good.write_text("expect pass\n\nhost fn main()\nend\n")
    bad = tmp_path / "bad.sc"
    bad.write_text(
        "expect double-free\n\nhost fn main()\nend\n"
    )
    result = run_corpus(_parsed(good, bad), MachineConfig())
    assert len(result.entries) == 4  # two scenarios, checked under both models
    assert len(result.failures) == 2  # bad.sc misses under both models
    assert {e.scenario for e in result.failures} == {str(bad)}
    assert result.exit_code == 1


def test_corpus_unannotated_scenario_must_pass(tmp_path):
    quiet = tmp_path / "quiet.sc"
    quiet.write_text("host fn main()\n  let x: i32 = uninit\n  let y: i32 = x\nend\n")
    result = run_corpus(_parsed(quiet), MachineConfig())
    assert len(result.failures) == 2
    assert result.failures[0].expected == "pass"
    assert result.failures[0].actual == "uninitialized-read"


def test_corpus_model_specific_annotations_run_per_model(tmp_path):
    split = tmp_path / "split.sc"
    split.write_text(
        "expect tb: pass\nexpect sb: access-out-of-bounds\n\n"
        + open(corpus_path("offset_beyond_borrow.sc")).read().split("\n", 4)[-1]
    )
    result = run_corpus(_parsed(split), MachineConfig())
    assert result.failures == ()


def test_corpus_counts_sum_to_scenario_count(tmp_path):
    for name, text in (
        ("a.sc", "expect pass\n\nhost fn main()\nend\n"),
        ("b.sc", "expect assertion-failed\n\nhost fn main()\n  let x: i32 = 1\n  assert_eq x 2\nend\n"),
    ):
        (tmp_path / name).write_text(text)
    result = run_corpus(_parsed(tmp_path / "a.sc", tmp_path / "b.sc"), MachineConfig())
    counts = result.counts
    assert sum(counts.values()) == len(result.outcomes) == 2
    assert counts["pass"] == 1
    assert counts["bug"] == 1
    assert set(counts) == {"pass", "bug", "unsupported", "timeout"}


def test_corpus_report_shape(tmp_path):
    (tmp_path / "one.sc").write_text("expect pass\n\nhost fn main()\nend\n")
    result = run_corpus(_parsed(tmp_path / "one.sc"), MachineConfig())
    report = corpus_report(result)
    assert report["total"] == 2
    assert report["mismatches"] == 0
    assert report["exit_code"] == 0
    assert report["summary"]["model"] == "tb"
    assert report["summary"]["counts"]["pass"] == 1
    assert len(report["summary"]["dedup_groups"]) == 1
    group = report["summary"]["dedup_groups"][0]
    assert group["scenarios"] == [str(tmp_path / "one.sc")]


def test_bundled_corpus_has_no_expectation_mismatches():
    from conftest import corpus_files

    result = run_corpus(_parsed(*corpus_files()), MachineConfig())
    assert result.failures == ()
    assert sum(result.counts.values()) == len(corpus_files())
