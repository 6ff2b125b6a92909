"""Rebuild diagnostics and outcomes from their report dicts.

The inverse of the JSON that `json_dumps` writes for a diagnostic or an
outcome, used only to check that a report loses nothing.
"""

from typing import Optional

from seamcheck.diagnostics import (
    Classification,
    Diagnostic,
    DiagnosticKind,
    Outcome,
    TagEvent,
    TagHistory,
    TraceFrame,
)


def _frame_from_dict(d: dict) -> TraceFrame:
    return TraceFrame(d["dialect"], d["function"], d["line"], d["statement"])


def _event_from_dict(d: Optional[dict]) -> Optional[TagEvent]:
    return None if d is None else TagEvent(d["line"], d["description"])


def _history_from_dict(d: dict) -> TagHistory:
    return TagHistory(
        tag=d["tag"],
        label=d["label"],
        created=_event_from_dict(d["created"]),
        last_valid_use=_event_from_dict(d["last_valid_use"]),
        invalidated=_event_from_dict(d["invalidated"]),
    )


def diagnostic_from_dict(d: dict) -> Diagnostic:
    return Diagnostic(
        kind=DiagnosticKind(d["kind"]),
        message=d["message"],
        host_trace=tuple(_frame_from_dict(f) for f in d["host_trace"]),
        foreign_trace=tuple(_frame_from_dict(f) for f in d["foreign_trace"]),
        permission_history=tuple(_history_from_dict(h) for h in d["permission_history"]),
        tracker_snapshot=d["tracker_snapshot"],
        allocation_origin=d["allocation_origin"],
        address=d["address"],
    )


def outcome_from_dict(d: dict) -> Outcome:
    return Outcome(
        classification=Classification(d["classification"]),
        diagnostics=tuple(diagnostic_from_dict(x) for x in d["diagnostics"]),
        leaks=tuple(diagnostic_from_dict(x) for x in d["leaks"]),
        note=d.get("note", ""),
    )
