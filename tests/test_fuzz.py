"""Mutation fuzz over the bundled corpus: no input lets a Python exception escape.

Every mutant of a corpus scenario either fails to parse with `ParseError` or
runs to an `Outcome` under both models. The mutants come from a fixed seed,
so a failure names a mutant that reproduces: its source scenario, the
mutation, and the exception it raised.
"""

import random
import string

from seamcheck.machine import MachineConfig, run_program
from seamcheck.parser import ParseError, parse_text

from conftest import corpus_files

_SEED = 20240917
_MUTANTS = 3000
_STEP_BUDGET = 200


def _mutate(rng: random.Random, lines: list[str], vocabulary: list[str]) -> tuple[str, list[str]]:
    """One line drop, line duplicate, or token swap, described for the report."""
    i = rng.randrange(len(lines))
    mutation = rng.choice(("drop", "duplicate", "swap"))
    if mutation == "drop":
        return f"drop line {i + 1}", lines[:i] + lines[i + 1:]
    if mutation == "duplicate":
        j = rng.randrange(len(lines) + 1)
        return f"copy line {i + 1} before line {j + 1}", lines[:j] + [lines[i]] + lines[j:]
    words = lines[i].split(" ")
    k = rng.randrange(len(words))
    old, words[k] = words[k], rng.choice(vocabulary)
    return f"line {i + 1}: {old!r} -> {words[k]!r}", lines[:i] + [" ".join(words)] + lines[i + 1:]


def test_corpus_mutants_parse_or_run_to_an_outcome():
    rng = random.Random(_SEED)
    sources = []
    for path in corpus_files():
        with open(path, encoding="utf-8") as fh:
            sources.append((path.rsplit("/", 1)[-1], fh.read().splitlines()))
    vocabulary = sorted({w for _, lines in sources for line in lines for w in line.split()})
    failures = []
    ran = 0
    for _ in range(_MUTANTS):
        name, lines = rng.choice(sources)
        what, mutant = _mutate(rng, lines, vocabulary)
        try:
            program = parse_text("\n".join(mutant) + "\n", name)
        except ParseError:
            continue
        except Exception as e:  # any other exception is the finding
            failures.append(f"{name}, {what}: parse raised {type(e).__name__}: {e}")
            continue
        ran += 1
        for model in ("tb", "sb"):
            try:
                run_program(program, MachineConfig(model=model, steps=_STEP_BUDGET))
            except Exception as e:
                failures.append(f"{name}, {what}: {model} raised {type(e).__name__}: {e}")
    assert not failures, f"{len(failures)} escaped exceptions:\n" + "\n".join(failures[:20])
    # The mutations must leave enough programs parseable to exercise the machine.
    assert ran >= _MUTANTS // 10


_CHAR_SEED = 1
_CHAR_MUTANTS = 5000
# Digits, letters, the punctuation tokens, `>` (only legal in `->`), the
# comment mark, a tab and one letter no identifier may hold.
_ALPHABET = string.digits + string.ascii_letters + "()[]{}:,.*&=@;-" + ">#\té"


def _mutate_char(rng: random.Random, lines: list[str], code_lines: list[int]) -> tuple[str, list[str]]:
    """Insert, delete or replace one character of a line that holds code."""
    i = rng.choice(code_lines)
    line = lines[i]
    j = rng.randrange(len(line) + 1)
    c = rng.choice(_ALPHABET)
    mutation = rng.choice(("insert", "delete", "replace"))
    if mutation == "insert":
        new = line[:j] + c + line[j:]
    elif mutation == "delete":
        new = line[:j] + line[j + 1:]
    else:
        new = line[:j] + c + line[j + 1:]
    return f"line {i + 1}: {line!r} -> {new!r}", lines[:i] + [new] + lines[i + 1:]


def test_character_mutants_parse_or_run_to_an_outcome():
    rng = random.Random(_CHAR_SEED)
    sources = []
    for path in corpus_files():
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        code_lines = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
        sources.append((path.rsplit("/", 1)[-1], lines, code_lines))
    failures = []
    ran = 0
    for _ in range(_CHAR_MUTANTS):
        name, lines, code_lines = rng.choice(sources)
        what, mutant = _mutate_char(rng, lines, code_lines)
        try:
            program = parse_text("\n".join(mutant) + "\n", name)
        except ParseError:
            continue
        except Exception as e:  # any other exception is the finding
            failures.append(f"{name}, {what}: parse raised {type(e).__name__}: {e}")
            continue
        ran += 1
        for model in ("tb", "sb"):
            try:
                run_program(program, MachineConfig(model=model, steps=_STEP_BUDGET))
            except Exception as e:
                failures.append(f"{name}, {what}: {model} raised {type(e).__name__}: {e}")
    assert not failures, f"{len(failures)} escaped exceptions:\n" + "\n".join(failures[:20])
    assert ran >= _CHAR_MUTANTS // 10
