"""Published-model litmus tests: each file in `tests/litmus/` is one rule of a published model.

A file's `expect` lines give the outcome the published models give, Tree Borrows (Villani et al.,
PLDI 2025) under tb and Stacked Borrows as Miri runs it under sb, and its `# rule:` lines cite
where that rule comes from. Where seamcheck departs from the published rule on purpose, a
`# known: MODEL gives OUTCOME. "ENTRY"` line names seamcheck's outcome and the entry of
`docs/scenario-language.md` that explains the difference. Every other outcome must be the
published one, and a known difference that no longer differs must be taken out of the file.
"""

import re

import pytest

from conftest import REPO_ROOT
from seamcheck.machine import MachineConfig, run_program
from seamcheck.parser import parse_text
from seamcheck.runner import outcome_tag

LITMUS_DIR = REPO_ROOT / "tests" / "litmus"
_SECTIONS = {
    "tb": "Known differences from published Tree Borrows",
    "sb": "Known differences from Miri's Stacked Borrows",
}
_KNOWN = re.compile(r'^# known: (tb|sb) gives (\S+)\. "(.+)"$', re.M)


def _documented_differences():
    """Per model, the titles of the entries of its known-differences section."""
    text = (REPO_ROOT / "docs" / "scenario-language.md").read_text()
    entries = {}
    for model, heading in _SECTIONS.items():
        section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
        entries[model] = set(re.findall(r"^- \*\*(.+?)\*\*", section, re.M))
    return entries


def test_the_litmus_seed_is_there():
    assert len(list(LITMUS_DIR.glob("*.sc"))) >= 8


@pytest.mark.parametrize("path", sorted(LITMUS_DIR.glob("*.sc")), ids=lambda path: path.stem)
def test_litmus_outcome_is_published_or_a_documented_difference(path):
    text = path.read_text()
    program = parse_text(text, str(path))
    assert re.search(r"^# rule: \S", text, re.M), "a litmus file cites the rule it follows"
    known = {model: (gives, entry) for model, gives, entry in _KNOWN.findall(text)}
    documented = _documented_differences()
    for model in ("tb", "sb"):
        published = program.expectation_for(model).value
        actual = outcome_tag(run_program(program, MachineConfig(model=model))).value
        if model not in known:
            assert actual == published, f"{model}: seamcheck gives {actual}, the published model {published}"
            continue
        gives, entry = known[model]
        assert entry in documented[model], f"{model}: no entry {entry!r} in {_SECTIONS[model]!r}"
        assert gives != published, f"{model}: the known difference is gone; delete its `# known:` line"
        assert actual == gives, f"{model}: seamcheck gives {actual}, its `# known:` line {gives}"
