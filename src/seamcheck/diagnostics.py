"""Diagnostics, run outcomes, deduplication, and report rendering.

A diagnostic carries both halves of the cross-dialect trace plus, for
aliasing errors, the permission history of the tags involved and a rendered
tracker snapshot. Deduplication keys are built from the error class, an
address-stripped message, and a trace fingerprint; they never contain
absolute addresses or allocation ids, so runs that differ only in address
assignment collapse to the same key. `OutcomeTag`, the vocabulary of
`expect` annotations, is built here from the diagnostic kinds. Reports
hold these records as they are: a record's field names are its report keys.
"""

from __future__ import annotations

import enum
import functools
import json
import re
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Optional


class DiagnosticKind(enum.Enum):
    EXPIRED_PERMISSION = "expired-permission"
    INSUFFICIENT_PERMISSION = "insufficient-permission"
    PROTECTED_PERMISSION = "protected-permission"
    ACCESS_OUT_OF_BOUNDS = "access-out-of-bounds"
    USE_AFTER_FREE = "use-after-free"
    DOUBLE_FREE = "double-free"
    UNINITIALIZED_READ = "uninitialized-read"
    MISALIGNED_ACCESS = "misaligned-access"
    INVALID_BINDING = "invalid-binding"
    CROSS_LANGUAGE_DEALLOC = "cross-language-dealloc"
    STRICT_PROVENANCE_VIOLATION = "strict-provenance-violation"
    MEMORY_LEAK = "memory-leak"
    ASSERTION_FAILED = "assertion-failed"


# Vocabulary for `expect` annotations (corpus mode): the three results that
# are not violations, then every diagnostic kind under its own name.
OutcomeTag = enum.Enum(
    "OutcomeTag",
    [("PASS", "pass"), ("TIMEOUT", "timeout"), ("UNSUPPORTED", "unsupported")]
    + [(kind.name, kind.value) for kind in DiagnosticKind],
    module=__name__,
)


@dataclass(slots=True)
class TraceFrame:
    dialect: str  # "host" or "foreign"
    function: str
    line: int
    statement: str


@dataclass(frozen=True)
class TagEvent:
    line: int
    description: str


@dataclass(slots=True)
class TagHistory:
    """Creation, last valid use, and first invalidation of one tag.

    A borrow tracker keeps these as raw events and builds the records only
    when asked for its history; a diagnostic holds the records as they
    stood when the error was raised.
    """

    tag: int
    label: str
    created: TagEvent
    last_valid_use: Optional[TagEvent] = None
    invalidated: Optional[TagEvent] = None


@dataclass(slots=True)
class Diagnostic:
    kind: DiagnosticKind
    message: str
    host_trace: tuple[TraceFrame, ...] = ()
    foreign_trace: tuple[TraceFrame, ...] = ()
    permission_history: tuple[TagHistory, ...] = ()
    tracker_snapshot: Optional[str] = None
    allocation_origin: Optional[str] = None
    address: Optional[int] = None


class Classification(enum.Enum):
    PASS = "pass"
    BUG = "bug"
    UNSUPPORTED = "unsupported"
    TIMEOUT = "timeout"


@dataclass
class Outcome:
    classification: Classification
    diagnostics: tuple[Diagnostic, ...] = ()
    leaks: tuple[Diagnostic, ...] = ()
    note: str = ""  # human-readable cause for unsupported/timeout outcomes

    @property
    def bug_kind(self) -> Optional[DiagnosticKind]:
        if self.classification is Classification.BUG and self.diagnostics:
            return self.diagnostics[0].kind
        return None

    @property
    def is_violation(self) -> bool:
        return self.classification is Classification.BUG


@dataclass(frozen=True)
class DedupKey:
    exit_class: str
    normalized_log: str
    trace_fingerprint: tuple[str, ...]


_ADDR_RE = re.compile(r"0x[0-9a-fA-F]+")
_ALLOC_RE = re.compile(r"alloc#\d+")
_TAG_RE = re.compile(r"tag#\d+")


def _strip_identifiers(text: str) -> str:
    text = _ADDR_RE.sub("<addr>", text)
    text = _ALLOC_RE.sub("alloc#<id>", text)
    text = _TAG_RE.sub("tag#<id>", text)
    return text


def _frame_key(f: TraceFrame) -> str:
    return f"{f.dialect}:{f.function}:{f.line}"


def normalize(diag: Diagnostic) -> DedupKey:
    """Dedup key for one diagnostic.

    Foreign-located errors keep the foreign frames plus the first host frame
    at the boundary; errors located in host code keep only the innermost
    host frame. Addresses, allocation ids, and tag numbers are replaced by
    placeholders in the log half of the key.
    """
    if diag.foreign_trace:
        frames = [_frame_key(f) for f in diag.foreign_trace]
        if diag.host_trace:
            frames.append(_frame_key(diag.host_trace[0]))
    elif diag.host_trace:
        frames = [_frame_key(diag.host_trace[0])]
    else:
        frames = []
    return DedupKey(
        exit_class=diag.kind.value,
        normalized_log=_strip_identifiers(diag.message),
        trace_fingerprint=tuple(frames),
    )


def outcome_key(outcome: Outcome) -> DedupKey:
    """Dedup key for a whole run outcome.

    Bug outcomes key on their primary diagnostic; leak-only passes key on the
    first leak record; everything else keys on the bare classification.
    """
    if outcome.classification is Classification.BUG and outcome.diagnostics:
        return normalize(outcome.diagnostics[0])
    if outcome.classification is Classification.PASS and outcome.leaks:
        return normalize(outcome.leaks[0])
    return DedupKey(outcome.classification.value, _strip_identifiers(outcome.note), ())


def dedup(items: Iterable[tuple[str, Outcome]]) -> dict[DedupKey, list[str]]:
    """Partition labelled outcomes by dedup key.

    Insertion order of keys follows first occurrence, so output is
    deterministic for a deterministically ordered input. The partition is
    idempotent: feeding each group's representative back in reproduces the
    same keys.
    """
    groups: dict[DedupKey, list[str]] = {}
    for label, outcome in items:
        groups.setdefault(outcome_key(outcome), []).append(label)
    return groups


# ---- text rendering ----------------------------------------------------------


def render_diagnostic(d: Diagnostic) -> str:
    lines = [f"error[{d.kind.value}]: {d.message}"]
    for name, trace in (("host", d.host_trace), ("foreign", d.foreign_trace)):
        if trace:
            lines.append(f"  {name} trace:")
            for f in trace:
                lines.append(f"    at {f.function}:{f.line}  {f.statement}")
    if d.permission_history:
        lines.append("  permission history:")
        for h in d.permission_history:
            lines.append(f"    tag#{h.tag} '{h.label}' created at line {h.created.line}: {h.created.description}")
            if h.last_valid_use is not None:
                lines.append(f"      last valid use at line {h.last_valid_use.line}: {h.last_valid_use.description}")
            if h.invalidated is not None:
                lines.append(f"      invalidated at line {h.invalidated.line}: {h.invalidated.description}")
    if d.tracker_snapshot:
        lines.append("  borrow state:")
        for snap_line in d.tracker_snapshot.splitlines():
            lines.append(f"    {snap_line}")
    return "\n".join(lines)


# ---- serialization -----------------------------------------------------------


def json_dumps(payload: object) -> str:
    """Stable serialization used everywhere a report is compared byte-wise.

    The bytes of `json.dumps(payload, indent=2, sort_keys=True)` plus a
    newline, made in one pass: given `indent`, `json.dumps` leaves its C
    encoder for a pure-Python one. A dataclass instance is written as the
    object of its fields, an enum member as its value.
    """
    out: list[str] = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: object, newline: str, out: list[str]) -> None:
    """Append the JSON text of `value`; `newline` starts a line at its depth."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _quote(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, enum.Enum):
        _encode(value.value, newline, out)
    else:
        keys = _field_keys(type(value))
        if keys is None:
            out.append(json.dumps(value))  # floats, and the TypeError of anything else
        elif not keys:
            out.append("{}")
        else:
            inner = newline + "  "
            sep = "{" + inner
            for name, key in keys:
                out.append(sep + key)
                _encode(getattr(value, name), inner, out)
                sep = "," + inner
            out.append(newline + "}")


@functools.cache
def _field_keys(cls: type) -> Optional[tuple[tuple[str, str], ...]]:
    """A dataclass's field names in sorted order, each with its quoted key; None for any other class."""
    if not is_dataclass(cls):
        return None
    return tuple((name, _quote(name) + ": ") for name in sorted(f.name for f in fields(cls)))
