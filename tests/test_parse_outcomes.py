"""Every input the parser is known to meet keeps its parse outcome.

An outcome is a digest of the parsed program's `repr`, or of the
`ParseError`'s (line, col, message). `tests/golden/parse_outcomes.json` holds
one for each corpus file, one for each case of the benchmark's workloads at
seeds 1-3, and one for each block of 100 mutants that `test_fuzz` draws. So a
parser change that moves any program node or any error, its position
included, fails here.

Record the golden again, only for a change that means to move outcomes, with
`PYTHONPATH=src python3 tests/test_parse_outcomes.py`.
"""

import hashlib
import json
import os
from typing import Iterable, Iterator

from conftest import CORPUS_DIR, REPO_ROOT, bench_workloads, corpus_files
from seamcheck.parser import ParseError, parse_text
from test_fuzz import char_mutants, line_mutants

GOLDEN = REPO_ROOT / "tests" / "golden" / "parse_outcomes.json"
_SEEDS = (1, 2, 3)
_BLOCK = 100  # mutants per digest


def _outcome(text: str, path: str) -> str:
    try:
        return repr(parse_text(text, path))
    except ParseError as e:
        return f"ParseError({e.line}, {e.col}, {e.message!r})"


def _digest(outcomes: Iterable[str]) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _blocks(mutants: Iterator[tuple[str, str, str]]) -> list[str]:
    """One digest per `_BLOCK` mutants, in draw order."""
    outcomes = [_outcome(text, name) for name, _, text in mutants]
    return [_digest(outcomes[i:i + _BLOCK]) for i in range(0, len(outcomes), _BLOCK)]


def outcomes() -> dict:
    """The live outcomes, in the golden's shape."""
    corpus = {}
    for path in corpus_files():
        with open(path, encoding="utf-8") as fh:
            corpus[os.path.basename(path)] = _digest([_outcome(fh.read(), os.path.basename(path))])
    workloads = bench_workloads()
    cases = {}
    for workload in workloads.WORKLOADS:
        if workload == "corpus":
            continue  # the corpus files above, in another order
        for seed in _SEEDS:
            for case in workloads.build(workload, seed, str(CORPUS_DIR)):
                cases[f"{workload}@{seed}/{case.name}"] = _digest([_outcome(case.text, case.name)])
    return {
        "corpus": corpus, "cases": cases,
        "line_mutants": _blocks(line_mutants()), "char_mutants": _blocks(char_mutants()),
    }


def test_every_known_input_keeps_its_parse_outcome():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    live = outcomes()
    for part, want in golden.items():
        got = live[part]
        if isinstance(want, list):  # a digest per block of mutants, by block
            want, got = dict(enumerate(want)), dict(enumerate(got))
        moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        assert not moved, f"{part}: {len(moved)} outcomes moved, first at {moved[:10]}"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(outcomes(), fh, indent=0, sort_keys=True)
        fh.write("\n")
