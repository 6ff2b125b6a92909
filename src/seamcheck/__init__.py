"""seamcheck: find undefined behavior at a host/foreign memory boundary.

Scenarios written in a small two-dialect language run on one shared memory
under a pluggable aliasing model (tree-structured by default, stack-based as
the alternative). Runs are deterministic per (scenario, seed); disagreements
between the two models are first-class results.
"""

from .diagnostics import (
    Classification,
    DedupKey,
    Diagnostic,
    DiagnosticKind,
    Outcome,
    TagEvent,
    TagHistory,
    TraceFrame,
    dedup,
    diagnostic_from_dict,
    diagnostic_to_dict,
    json_dumps,
    normalize,
    outcome_from_dict,
    outcome_key,
    outcome_to_dict,
    render_diagnostic,
)
from .ir import Dialect, Expectation, OutcomeTag, ScenarioProgram
from .machine import Machine, MachineConfig, run_program
from .memory import Memory, PointerValue, UbError
from .parser import ParseError, parse_file, parse_text, render_program
from .runner import (
    CorpusResult,
    DifferentialResult,
    exit_code,
    outcome_tag,
    run_corpus,
    run_differential,
)
from .stacked_borrows import StackedBorrowTracker
from .tree_borrows import TreeBorrowTracker
from .types import layout_of, size_of

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CorpusResult",
    "DedupKey",
    "Diagnostic",
    "DiagnosticKind",
    "Dialect",
    "DifferentialResult",
    "Expectation",
    "Machine",
    "MachineConfig",
    "Memory",
    "Outcome",
    "OutcomeTag",
    "ParseError",
    "PointerValue",
    "ScenarioProgram",
    "StackedBorrowTracker",
    "TagEvent",
    "TagHistory",
    "TraceFrame",
    "TreeBorrowTracker",
    "UbError",
    "dedup",
    "diagnostic_from_dict",
    "diagnostic_to_dict",
    "exit_code",
    "json_dumps",
    "layout_of",
    "normalize",
    "outcome_from_dict",
    "outcome_key",
    "outcome_tag",
    "outcome_to_dict",
    "parse_file",
    "parse_text",
    "render_diagnostic",
    "render_program",
    "run_corpus",
    "run_differential",
    "run_program",
    "size_of",
    "__version__",
]
