"""Command-line front end.

One command, three modes. Positional scenario paths run individually under
the selected model; `--model both` or `--diff` runs each under both models
and reports the differential verdict; `--corpus DIR` checks every scenario
in a directory against its `expect` annotations and prints a classification
summary with dedup groups. `main` decides once whether a run is
differential, and corpus mode, which checks each model's annotations on its
own, refuses either spelling of it.

Exit codes: 0 clean, 1 violation found (or corpus mismatch), 2 scenario
unsupported, 3 budget or deadlock timeout, 4 clean except leaks, 64 bad
usage or unparseable scenario, 70 internal error (a fault in seamcheck
itself: its traceback goes to stderr and nothing to stdout). Over several
scenarios the worst code wins, with violations ranked above unsupported,
timeouts, and leaks.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import traceback
from dataclasses import fields
from typing import Optional

from .diagnostics import Classification, Outcome, json_dumps, render_diagnostic
from .machine import MachineConfig
from .parser import ParseError, parse_file
from .runner import (
    DifferentialResult,
    corpus_report,
    differential_report,
    exit_code,
    outcome_tag,
    run_corpus,
    run_differential,
    run_program,
    single_report,
    worst_exit_code,
)

USAGE_EXIT = 64
INTERNAL_EXIT = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seamcheck", description="Scenario interpreter for FFI boundary bugs.")
    parser.add_argument("scenarios", nargs="*", help="scenario files to run")
    parser.add_argument(
        "--model",
        choices=("tb", "sb", "both"),
        default=None,
        help="borrow model to interpret under (default: tb; 'both' compares)",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="run under both models and report the differential verdict",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        help="check every .sc file in DIR against its expect annotations",
    )
    parser.add_argument("--seed", type=int, default=0, help="scheduler and address seed")
    parser.add_argument(
        "--steps",
        type=int,
        default=1_000_000,
        metavar="N",
        help="statements to execute before giving up (default: 1000000)",
    )
    parser.add_argument(
        "--strict-provenance",
        action="store_true",
        help="treat integer-to-pointer conversion as a violation",
    )
    parser.add_argument(
        "--zero-init-foreign",
        action="store_true",
        help="zero all foreign allocations on creation",
    )
    parser.add_argument(
        "--no-permissive-loads",
        dest="permissive_foreign_loads",
        action="store_false",
        help="make foreign reads of uninitialized memory an immediate error",
    )
    parser.add_argument(
        "--no-symbolic-alignment",
        dest="symbolic_alignment",
        action="store_false",
        help="check alignment against simulated addresses instead of symbolically",
    )
    parser.add_argument(
        "--no-unique-as-mutable",
        dest="unique_as_mutable",
        action="store_false",
        help="do not retag owned heap pointers like mutable references",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="report format (default: text, or json when --out is given)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the report to PATH instead of standard output",
    )
    return parser


def _config(args: argparse.Namespace, model: str) -> MachineConfig:
    """The run's config: each field from the flag whose `dest` is its name."""
    options = {f.name: getattr(args, f.name) for f in fields(MachineConfig) if f.name != "model"}
    return MachineConfig(model=model, **options)


def _parse_scenario(path: str):
    try:
        return parse_file(path)
    except ParseError as e:
        print(f"error: {path}:{e.line}:{e.col}: {e.message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _outcome_text(outcome: Outcome, model: str) -> list[str]:
    lines = [f"[{model}] {outcome_tag(outcome).value}"]
    if outcome.classification is Classification.BUG:
        for d in outcome.diagnostics:
            lines.append(render_diagnostic(d))
    elif outcome.note:
        lines.append(f"  {outcome.note}")
    for leak in outcome.leaks:
        lines.append(f"  leak: {leak.message}")
    return lines


def _diff_text(path: str, result: DifferentialResult) -> list[str]:
    lines = [path]
    lines.extend(_outcome_text(result.tb, "tb"))
    lines.extend(_outcome_text(result.sb, "sb"))
    lines.append(f"verdict: {result.verdict}")
    return lines


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {out_path}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _run_scenarios(args: argparse.Namespace, fmt: str, differential: bool, model: str) -> int:
    programs = [_parse_scenario(p) for p in args.scenarios]
    reports: list[dict] = []
    lines: list[str] = []
    codes: list[int] = []
    for program in programs:
        if differential:
            config = _config(args, "tb")
            result = run_differential(program, config)
            codes.append(result.exit_code)
            if fmt == "json":
                reports.append(differential_report(program, config, result))
            else:
                lines.extend(_diff_text(program.path, result))
        else:
            config = _config(args, model)
            outcome = run_program(program, config)
            codes.append(exit_code(outcome))
            if fmt == "json":
                reports.append(single_report(program, config, outcome))
            else:
                lines.append(program.path)
                lines.extend(_outcome_text(outcome, model))
    code = worst_exit_code(codes)
    if fmt == "json":
        payload = reports[0] if len(reports) == 1 else {"runs": reports, "exit_code": code}
        _emit(json_dumps(payload), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return code


def _run_corpus(args: argparse.Namespace, fmt: str, model: str) -> int:
    paths = sorted(glob.glob(os.path.join(args.corpus, "*.sc")))
    if not paths:
        print(f"error: no .sc files in {args.corpus}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)
    programs = [_parse_scenario(p) for p in paths]  # parse errors surface before any run
    result = run_corpus(programs, _config(args, model))
    if fmt == "json":
        _emit(json_dumps(corpus_report(result)), args.out)
    else:
        lines = []
        for e in result.entries:
            status = "ok" if e.ok else f"MISMATCH (expected {e.expected})"
            lines.append(f"{e.scenario} [{e.model}] {e.actual}: {status}")
        counts = ", ".join(f"{k}: {v}" for k, v in result.counts.items())
        lines.append(f"summary [{result.summary_model}]: {counts}")
        lines.append(f"{len(result.dedup_groups)} dedup groups")
        lines.append(f"{len(result.entries)} checks, {len(result.failures)} mismatches")
        _emit("\n".join(lines) + "\n", args.out)
    return result.exit_code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.steps < 0:
        parser.error(f"--steps takes a count of 0 or more statements, not {args.steps}")
    if args.diff and args.model not in (None, "both"):
        parser.error("--diff runs both models; it contradicts --model " + args.model)
    if args.corpus is not None and args.scenarios:
        parser.error("--corpus takes a directory; scenario paths cannot be mixed in")
    differential = args.diff or args.model == "both"
    if args.corpus is not None and differential:
        parser.error("--diff and --model both apply to individual scenarios, not --corpus")
    if args.corpus is None and not args.scenarios:
        parser.error("nothing to do: give scenario paths or --corpus DIR")
    fmt = args.format if args.format is not None else ("json" if args.out else "text")
    model = args.model if args.model in ("tb", "sb") else "tb"
    try:
        if args.corpus is not None:
            return _run_corpus(args, fmt, model)
        return _run_scenarios(args, fmt, differential, model)
    except Exception as e:
        print(f"seamcheck: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL_EXIT
