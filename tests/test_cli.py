"""Command-line behavior: modes, flags, formats, exit codes."""

import difflib
import json
import os
import subprocess
import sys

import pytest

import seamcheck.cli
from seamcheck.cli import main

from conftest import CORPUS_DIR, REPO_ROOT, corpus_path

_PASS = "host fn main()\nend\n"
_BUG = "host fn main()\n  let x: i32 = 1\n  assert_eq x 2\nend\n"
_LEAK = (
    "host fn main()\n"
    "  let b: *mut i64 = heap_new i64 1\n"
    "  let raw: *mut i64 = heap_into_raw b\n"
    "end\n"
)
_UNSUPPORTED = "host fn main()\n  join nothing\nend\n"


@pytest.fixture()
def scenario(tmp_path):
    def write(text, name="case.sc"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_clean_scenario_exits_zero(scenario, capsys):
    code = main([scenario(_PASS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[tb] pass" in out


def test_violation_exits_one_with_diagnostic_text(scenario, capsys):
    code = main([scenario(_BUG)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error[assertion-failed]" in out


def test_unsupported_exits_two(scenario, capsys):
    assert main([scenario(_UNSUPPORTED)]) == 2
    assert "join" in capsys.readouterr().out


def test_timeout_exits_three(scenario, capsys):
    assert main([scenario(_PASS.replace("end", "  let x: i32 = 1\nend")), "--steps", "0"]) == 3
    assert "step budget" in capsys.readouterr().out


@pytest.mark.parametrize("steps", ["-1", "-5"])
def test_negative_step_budget_is_a_usage_error(scenario, capsys, steps):
    with pytest.raises(SystemExit) as e:
        main([scenario(_PASS), "--steps", steps])
    assert e.value.code == 64
    captured = capsys.readouterr()
    assert f"--steps takes a count of 0 or more statements, not {steps}" in captured.err
    assert "step budget" not in captured.out


def test_leaks_exit_four(scenario, capsys):
    code = main([scenario(_LEAK)])
    out = capsys.readouterr().out
    assert code == 4
    assert "leak:" in out


def test_parse_error_exits_sixty_four(scenario, capsys):
    code_holder = []
    with pytest.raises(SystemExit) as e:
        main([scenario("host fn main()\n  let x: wat = 1\nend\n")])
    assert e.value.code == 64
    err = capsys.readouterr().err
    assert "error:" in err and ":2:" in err


@pytest.mark.parametrize("literal", ["08", "-01", "0\u0663"])
def test_leading_zero_literal_exits_sixty_four_not_internal_error(scenario, capsys, literal):
    with pytest.raises(SystemExit) as e:
        main([scenario(f"host fn main()\n  let x: i32 = {literal}\nend\n")])
    assert e.value.code == 64
    err = capsys.readouterr().err
    assert f":2:14: invalid integer literal '{literal}'" in err
    assert "internal error" not in err


def test_too_deeply_nested_type_exits_sixty_four_not_internal_error(scenario, capsys):
    with pytest.raises(SystemExit) as e:
        main([scenario(f"host fn main()\n  let y: {'&' * 3000}i32 = 0\nend\n")])
    assert e.value.code == 64
    err = capsys.readouterr().err
    assert ":2:108: type nested more than 100 levels deep" in err
    assert "internal error" not in err


def test_missing_file_exits_sixty_four(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main([str(tmp_path / "absent.sc")])
    assert e.value.code == 64


def test_unwritable_out_path_exits_sixty_four(scenario, tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main([scenario(_PASS), "--out", str(tmp_path / "absent" / "report.json")])
    assert e.value.code == 64
    assert "cannot write" in capsys.readouterr().err


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 64
    assert "nothing to do" in capsys.readouterr().err


def test_diff_with_explicit_model_is_a_usage_error(scenario, capsys):
    with pytest.raises(SystemExit) as e:
        main([scenario(_PASS), "--diff", "--model", "tb"])
    assert e.value.code == 64


def test_corpus_mixed_with_scenarios_is_a_usage_error(scenario, capsys):
    with pytest.raises(SystemExit) as e:
        main([scenario(_PASS), "--corpus", str(CORPUS_DIR)])
    assert e.value.code == 64


def test_corpus_with_diff_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--corpus", str(CORPUS_DIR), "--diff"])
    assert e.value.code == 64


def test_corpus_with_model_both_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--corpus", str(CORPUS_DIR), "--model", "both"])
    assert e.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--model both" in captured.err


def test_empty_corpus_dir_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["--corpus", str(tmp_path)])
    assert e.value.code == 64
    assert "no .sc files" in capsys.readouterr().err


def test_model_selects_the_interpreter(capsys):
    path = corpus_path("offset_beyond_borrow.sc")
    assert main([path, "--model", "tb"]) == 0
    assert main([path, "--model", "sb"]) == 1
    capsys.readouterr()


def test_json_format_single_report(scenario, capsys):
    code = main([scenario(_BUG), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["outcome"] == "assertion-failed"
    assert report["exit_code"] == 1
    assert report["model"] == "tb"
    assert report["config"]["permissive_foreign_loads"] is True
    assert report["result"]["classification"] == "bug"
    assert report["dedup_key"]["exit_class"] == "assertion-failed"


def test_out_path_defaults_to_json(scenario, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([scenario(_PASS), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert sorted(report) == [
        "config",
        "dedup_key",
        "exit_code",
        "model",
        "outcome",
        "result",
        "scenario",
        "seed",
    ]


def test_out_path_with_explicit_text_format(scenario, tmp_path):
    out = tmp_path / "report.txt"
    main([scenario(_PASS), "--out", str(out), "--format", "text"])
    assert "[tb] pass" in out.read_text()


def test_diff_mode_reports_verdict(capsys):
    code = main([corpus_path("offset_beyond_borrow.sc"), "--diff"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: sb-only-violation" in out
    assert "[tb] pass" in out
    assert "[sb] access-out-of-bounds" in out


def test_model_both_equals_diff(capsys):
    path = corpus_path("offset_beyond_borrow.sc")
    code_flag = main([path, "--diff", "--format", "json"])
    flag_report = json.loads(capsys.readouterr().out)
    code_model = main([path, "--model", "both", "--format", "json"])
    model_report = json.loads(capsys.readouterr().out)
    assert code_flag == code_model == 1
    assert flag_report == model_report
    assert flag_report["verdict"] == "sb-only-violation"
    assert flag_report["config"]["model"] == "both"


def test_multiple_scenarios_combine_exit_codes(scenario, capsys):
    clean = scenario(_PASS, "clean.sc")
    leaky = scenario(_LEAK, "leaky.sc")
    buggy = scenario(_BUG, "buggy.sc")
    assert main([clean, leaky]) == 4
    capsys.readouterr()
    assert main([clean, leaky, buggy]) == 1
    capsys.readouterr()


def test_multiple_scenarios_json_wraps_runs(scenario, capsys):
    clean = scenario(_PASS, "clean.sc")
    buggy = scenario(_BUG, "buggy.sc")
    code = main([clean, buggy, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["exit_code"] == 1
    assert [r["outcome"] for r in report["runs"]] == ["pass", "assertion-failed"]


def test_corpus_text_summary(capsys):
    code = main(["--corpus", str(CORPUS_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary [tb]:" in out
    assert "dedup groups" in out
    assert "0 mismatches" in out


def test_corpus_json_report(capsys):
    code = main(["--corpus", str(CORPUS_DIR), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["mismatches"] == 0
    assert report["exit_code"] == 0
    assert sum(report["summary"]["counts"].values()) == len(
        {c["scenario"] for c in report["checks"]}
    )


def test_corpus_mismatch_exits_one(tmp_path, capsys):
    (tmp_path / "wrong.sc").write_text("expect double-free\n\nhost fn main()\nend\n")
    code = main(["--corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out


def test_flags_thread_through_to_the_machine(scenario, capsys):
    strict = scenario(
        "host fn main()\n"
        "  let x: u32 = 1\n"
        "  let xp: *mut u32 = &raw mut x\n"
        "  let addr: usize = xp as usize\n"
        "  let back: *mut u32 = addr as *mut u32\n"
        "end\n"
    )
    assert main([strict]) == 0
    capsys.readouterr()
    assert main([strict, "--strict-provenance"]) == 1
    assert "strict-provenance-violation" in capsys.readouterr().out


def test_seed_flag_lands_in_the_report(scenario, capsys):
    main([scenario(_PASS), "--seed", "42", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42
    assert report["config"]["seed"] == 42


_DEFAULT_CONFIG = {
    "model": "tb",
    "seed": 0,
    "steps": 1_000_000,
    "symbolic_alignment": True,
    "strict_provenance": False,
    "permissive_foreign_loads": True,
    "zero_init_foreign": False,
    "unique_as_mutable": True,
}


@pytest.mark.parametrize(
    "flag, changed",
    [
        (["--strict-provenance"], {"strict_provenance": True}),
        (["--no-permissive-loads"], {"permissive_foreign_loads": False}),
        (["--no-symbolic-alignment"], {"symbolic_alignment": False}),
        (["--no-unique-as-mutable"], {"unique_as_mutable": False}),
        (["--steps", "7"], {"steps": 7}),
        (["--seed", "5"], {"seed": 5}),
        (["--zero-init-foreign"], {"zero_init_foreign": True, "permissive_foreign_loads": False}),
        (["--diff"], {"model": "both"}),
    ],
)
def test_each_flag_sets_its_report_config_key(scenario, capsys, flag, changed):
    main([scenario(_PASS), "--format", "json", *flag])
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {**_DEFAULT_CONFIG, **changed}


def test_reruns_are_byte_identical(scenario, capsys):
    path = scenario(_BUG)
    main([path, "--format", "json", "--seed", "3"])
    first = capsys.readouterr().out
    main([path, "--format", "json", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_corpus_json_report_matches_the_golden(tmp_path, monkeypatch):
    # The byte-identity proof for changes that must not move a verdict or a
    # diagnostic: the whole corpus report, run from the repo root as documented.
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "corpus.json"
    main(["--corpus", "corpus", "--format", "json", "--out", str(out)])
    got = out.read_bytes()
    want = (REPO_ROOT / "tests" / "golden" / "corpus.json").read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(), got.decode().splitlines(), "golden", "now", lineterm=""
        )
        pytest.fail("corpus report differs from tests/golden/corpus.json:\n" + "\n".join(diff))


def test_corpus_diff_json_report_matches_the_golden(tmp_path, monkeypatch):
    # Every diagnostic of every corpus scenario under both models: snapshots,
    # tag histories, traces and addresses, which the corpus report omits.
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "corpus_diff.json"
    paths = sorted(f"corpus/{p.name}" for p in CORPUS_DIR.glob("*.sc"))
    main(["--diff", "--format", "json", *paths, "--out", str(out)])
    got = out.read_bytes()
    want = (REPO_ROOT / "tests" / "golden" / "corpus_diff.json").read_bytes()
    if got != want:
        diff = difflib.unified_diff(
            want.decode().splitlines(), got.decode().splitlines(), "golden", "now", lineterm=""
        )
        pytest.fail("--diff report differs from tests/golden/corpus_diff.json:\n" + "\n".join(diff))


def test_internal_error_exits_70_with_traceback_on_stderr(scenario, capsys, monkeypatch):
    def broken(program, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(seamcheck.cli, "run_program", broken)
    code = main([scenario(_PASS)])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert "seamcheck: internal error: RuntimeError: boom" in captured.err
    assert "Traceback (most recent call last)" in captured.err


@pytest.mark.parametrize(
    "args, code, last",
    [
        (["--corpus", "corpus"], 0, "78 checks, 0 mismatches"),
        (["--diff", "corpus/offset_beyond_borrow.sc"], 1, "verdict: sb-only-violation"),
    ],
    ids=["corpus", "diff"],
)
def test_module_entry_point_runs_from_the_repo_root(args, code, last):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-m", "seamcheck", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == last
