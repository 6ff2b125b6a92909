"""Randomized property suites for the model and pipeline invariants.

Nine suites, each driven by at least a thousand generated cases:

1. tree model: Disabled is absorbing and no foreign tag stays Active
2. stack model: accesses only ever mutate the stack above the granting item
3. boundary translation: plans succeed exactly when byte sizes agree, and
   scalar and pointer crossings are bit-exact round trips
4. memory: the initialization mask only ever grows
5. dedup keys: identifier-invariant and idempotent partitioning
6. whole runs: byte-identical structured reports under a fixed seed
7. report encoder: `json_dumps` gives the bytes of `json.dumps` with
   `indent=2, sort_keys=True` and a newline, for plain payloads and for
   report records (as `asdict`, enum members as their values)
8. memory: an immediate local loads what the same stores leave in a real
   allocation's bytes, and materializes into that allocation
9. memory: the byte store (bytes, init mask, fragments) returns, raises and
   ends up holding what the per-byte oracle `perbyte_memory` does
"""

import json
import re
from dataclasses import asdict, is_dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamcheck.diagnostics import (
    Classification,
    DedupKey,
    Diagnostic,
    DiagnosticKind,
    Outcome,
    TagEvent,
    TagHistory,
    TraceFrame,
    dedup,
    json_dumps,
    normalize,
    outcome_key,
)
from seamcheck.machine import MachineConfig
from seamcheck.memory import (
    WILDCARD,
    AllocOrigin,
    Blob,
    Memory,
    PointerValue,
    UbError,
)
from seamcheck.parser import parse_file
from seamcheck.runner import CorpusEntry, run_program, single_report
from seamcheck.stacked_borrows import StackedBorrowTracker
from seamcheck.translate import TranslationError, field_count, plan_call, reinterpret
from seamcheck.tree_borrows import Permission, TreeBorrowTracker
from seamcheck.ir import BindingSignature, Dialect, FnDef, Param
from seamcheck.types import (
    ArrayType,
    CellType,
    FieldDef,
    IntType,
    PtrKind,
    PtrType,
    StructType,
    UnitType,
    size_of,
)

from conftest import corpus_path, init_mask, make_tracker
from perbyte_memory import PerByteMemory
from tracker_state import allows_write, peek_at, stack_at

_SIZE = 4
_RETAG_KINDS = ("mutable-ref", "shared-ref", "raw-mut", "raw-const", "cell")

_op = st.tuples(
    st.integers(0, 1),  # 0 retag, 1 access
    st.integers(0, 2**16),  # actor selector
    st.integers(0, 2**16),  # kind selector
    st.integers(0, 2**16),  # range start selector
    st.integers(0, 2**16),  # range width / protect selector
)
_ops = st.lists(_op, min_size=1, max_size=10)


def _range_from(a, b):
    lo = a % _SIZE
    hi = lo + 1 + b % (_SIZE - lo)
    return (lo, hi)


def _ancestors(tracker, tag):
    out = set()
    cur = tag
    while cur is not None:
        out.add(cur)
        cur = tracker.created[cur][3]
    return out


@settings(max_examples=1000, deadline=None)
@given(ops=_ops)
def test_suite_tree_disabled_absorbing_and_no_foreign_active(ops):
    tracker = make_tracker(TreeBorrowTracker, _SIZE)
    tags = [tracker.root_tag]
    disabled: set[tuple[int, int]] = set()

    for op, actor_sel, kind_sel, start_sel, extra_sel in ops:
        actor = tags[actor_sel % len(tags)]
        rng = _range_from(start_sel, extra_sel)
        try:
            if op == 0:
                kind = _RETAG_KINDS[kind_sel % len(_RETAG_KINDS)]
                protect = extra_sel % 7 == 0
                tags.append(
                    tracker.retag(actor, rng, kind, (), protect, f"t{len(tags)}", 0)
                )
            else:
                kind = "read" if kind_sel % 2 == 0 else "write"
                tracker.access(actor, rng, kind, 0)
        except UbError:
            break
        # Root stays Active at every location.
        for off in range(_SIZE):
            assert peek_at(tracker, tracker.root_tag, off)[0] is Permission.ACTIVE
        # Disabled never comes back.
        for tag, off in disabled:
            assert peek_at(tracker, tag, off)[0] is Permission.DISABLED
        for tag in tracker.labels:
            for off in range(_SIZE):
                if peek_at(tracker, tag, off)[0] is Permission.DISABLED:
                    disabled.add((tag, off))
        # After an access, no tag foreign to it is still Active there.
        if op == 1:
            child_side = _ancestors(tracker, actor)
            for tag in tracker.labels:
                if tag in child_side:
                    continue
                for off in range(*rng):
                    assert peek_at(tracker, tag, off)[0] is not Permission.ACTIVE


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(x in it for x in needle)


@settings(max_examples=1000, deadline=None)
@given(ops=_ops)
def test_suite_stack_mutation_only_above_granting_item(ops):
    tracker = make_tracker(StackedBorrowTracker, _SIZE)
    tags = [tracker.root_tag]

    for op, actor_sel, kind_sel, start_sel, extra_sel in ops:
        rng = _range_from(start_sel, extra_sel)
        if op == 0:
            actor = tags[actor_sel % len(tags)]
            kind = _RETAG_KINDS[kind_sel % len(_RETAG_KINDS)]
            try:
                tags.append(
                    tracker.retag(actor, rng, kind, (), False, f"t{len(tags)}", 0)
                )
            except UbError:
                break
            continue
        wildcard = actor_sel % 5 == 0
        actor = WILDCARD if wildcard else tags[actor_sel % len(tags)]
        kind = "read" if kind_sel % 2 == 0 else "write"
        before = {
            off: [(i.tag, i.grant, i.tag in tracker.protected) for i in stack_at(tracker, off)]
            for off in range(*rng)
        }
        grant_idx = {}
        for off in range(*rng):
            stack = stack_at(tracker, off)
            idx = None
            for i in range(len(stack) - 1, -1, -1):
                if wildcard:
                    if kind == "read" or allows_write(stack[i].grant):
                        idx = i
                        break
                elif stack[i].tag == actor:
                    idx = i
                    break
            grant_idx[off] = idx
        try:
            tracker.access(actor, rng, kind, 0)
        except UbError:
            break
        for off in range(*rng):
            old = before[off]
            new = [(i.tag, i.grant, i.tag in tracker.protected) for i in stack_at(tracker, off)]
            idx = grant_idx[off]
            assert idx is not None  # the access succeeded, so something granted it
            # Everything below and including the granting item is untouched.
            assert new[: idx + 1] == old[: idx + 1]
            assert _is_subsequence(new, old)
            if kind == "write":
                # A write leaves its granting item on top.
                assert new[-1] == old[idx]
            else:
                # A read removes exactly the writers above the granting item.
                kept = [item for item in old[idx + 1 :] if not allows_write(item[1])]
                assert new == old[: idx + 1] + kept


_INT_TYPES = [IntType(bits, signed) for bits in (8, 16, 32, 64) for signed in (True, False)]


def _struct_of(int_types):
    name = "S_" + "_".join(str(t) for t in int_types)
    return StructType(name, tuple(FieldDef(f"f{i}", t, None) for i, t in enumerate(int_types)))


_types = st.one_of(
    st.sampled_from(_INT_TYPES),
    st.just(PtrType(PtrKind.OPAQUE, None)),
    st.builds(
        PtrType,
        st.sampled_from([PtrKind.RAW_MUT, PtrKind.RAW_CONST]),
        st.sampled_from([IntType(8, False), IntType(32, True)]),
    ),
    st.builds(ArrayType, st.sampled_from(_INT_TYPES), st.integers(1, 4)),
    st.builds(_struct_of, st.lists(st.sampled_from(_INT_TYPES), min_size=1, max_size=4)),
    st.builds(CellType, st.sampled_from(_INT_TYPES)),
)


def _is_aggregate(t):
    return isinstance(t, (StructType, ArrayType, CellType))


def _translation_should_succeed(src, dst):
    if size_of(src) != size_of(dst):
        return False
    if isinstance(src, PtrType) and _is_aggregate(dst):
        return False
    if _is_aggregate(src) and isinstance(dst, PtrType):
        return False
    if _is_aggregate(src) and _is_aggregate(dst):
        return field_count(src) == field_count(dst)
    return True


@settings(max_examples=1000, deadline=None)
@given(src=_types, dst=_types, value=st.integers(0, 2**64 - 1), data=st.data())
def test_suite_translation_size_rule_and_bit_exact_round_trips(src, dst, value, data):
    binding = BindingSignature("b", "c_f", (src,), UnitType(), False)
    callee = FnDef("c_f", Dialect.FOREIGN, (Param("p", dst),), UnitType(), ())
    try:
        plan_call(binding, callee)
        succeeded = True
    except TranslationError:
        succeeded = False
    assert succeeded == _translation_should_succeed(src, dst)

    # Scalar crossings are two's-complement bit patterns: there and back is
    # the identity whenever the widths agree.
    if isinstance(src, IntType) and isinstance(dst, IntType) and src.size == dst.size:
        v = reinterpret(value, src)
        crossed = reinterpret(v, dst)
        assert reinterpret(crossed, src) == v
        assert crossed % (1 << dst.bits) == v % (1 << dst.bits)

    # Pointer round trips through memory keep address, identity, and tag.
    mem = Memory(tracker=TreeBorrowTracker)
    target = mem.allocate(16, 8, AllocOrigin.HOST_STACK, "target")
    slot = mem.allocate(8, 8, AllocOrigin.HOST_STACK, "slot")
    offset = data.draw(st.integers(0, 15), label="pointer offset")
    tag = data.draw(st.integers(1, 99), label="pointer tag")
    original = PointerValue(target.base + offset, target.id, offset, tag)
    mem.write_pointer(mem.base_pointer(slot), original)
    restored = mem.read_pointer(mem.base_pointer(slot))
    assert restored == original


_mask_op = st.tuples(
    st.integers(0, 3),  # 0 write_int, 1 memset, 2 write_pointer, 3 assume_init
    st.integers(0, 2**16),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**16),
)


@settings(max_examples=1000, deadline=None)
@given(ops=st.lists(_mask_op, min_size=1, max_size=8), seed=st.integers(0, 2**32))
def test_suite_init_mask_only_grows(ops, seed):
    mem = Memory(seed=seed, tracker=TreeBorrowTracker)
    alloc = mem.allocate(32, 8, AllocOrigin.FOREIGN_HEAP, "buf")
    ptr = mem.base_pointer(alloc)
    mask = init_mask(alloc)
    for op, off_sel, value, size_sel in ops:
        if op == 0:
            size = (1, 2, 4, 8)[size_sel % 4]
            off = (off_sel % (32 // size)) * size
            mem.write_int(ptr.with_byte_offset(off), size, value % (1 << (8 * size)))
            got = mem.read_int(ptr.with_byte_offset(off), size, False)
            assert got == value % (1 << (8 * size))
        elif op == 1:
            off = off_sel % 32
            size = size_sel % (32 - off + 1)
            mem.memset(ptr.with_byte_offset(off), value % 256, size)
        elif op == 2:
            off = (off_sel % 4) * 8
            mem.write_pointer(
                ptr.with_byte_offset(off),
                PointerValue(alloc.base, alloc.id, 0, 1),
            )
        else:
            off = off_sel % 32
            size = size_sel % (32 - off + 1)
            mem.assume_init(ptr.with_byte_offset(off), size)
        new_mask = init_mask(alloc)
        assert all(not was or now for was, now in zip(mask, new_mask))
        mask = new_mask


_lines = st.integers(1, 40)
_ids = st.integers(1, 500)


@st.composite
def _labelled_diagnostic(draw):
    kind = draw(st.sampled_from(list(DiagnosticKind)))
    tag = draw(_ids)
    alloc = draw(_ids)
    addr = draw(st.integers(0x1000, 2**48))
    off = draw(st.integers(0, 64))
    message = (
        f"write through tag#{tag} ('p') at alloc#{alloc}+{off}: "
        f"address 0x{addr:x} rejected"
    )
    host = tuple(
        TraceFrame("host", name, draw(_lines), "call f()")
        for name in draw(st.lists(st.sampled_from(["main", "outer"]), max_size=2))
    )
    foreign = tuple(
        TraceFrame("foreign", name, draw(_lines), "store i32 p 1")
        for name in draw(st.lists(st.sampled_from(["c_put", "c_fill"]), max_size=2))
    )
    return Diagnostic(kind, message, host_trace=host, foreign_trace=foreign), (tag, alloc, addr)


@settings(max_examples=1000, deadline=None)
@given(
    item=_labelled_diagnostic(),
    other=_labelled_diagnostic(),
    renumber=st.tuples(_ids, _ids, st.integers(0x1000, 2**48)),
)
def test_suite_dedup_identifier_invariance_and_idempotence(item, other, renumber):
    diag, (tag, alloc, addr) = item
    key = normalize(diag)
    assert "0x" not in key.normalized_log
    assert not re.search(r"alloc#\d", key.normalized_log)
    assert not re.search(r"tag#\d", key.normalized_log)

    # Renumbering addresses, allocation ids, and tags never changes the key.
    new_tag, new_alloc, new_addr = renumber
    renamed = Diagnostic(
        diag.kind,
        diag.message.replace(f"tag#{tag}", f"tag#{new_tag}")
        .replace(f"alloc#{alloc}", f"alloc#{new_alloc}")
        .replace(f"0x{addr:x}", f"0x{new_addr:x}"),
        host_trace=diag.host_trace,
        foreign_trace=diag.foreign_trace,
    )
    assert normalize(renamed) == key

    # Partitioning is idempotent: regrouping one representative per group
    # reproduces exactly the same keys.
    outcomes = [
        ("a.sc", Outcome(Classification.BUG, diagnostics=(diag,))),
        ("b.sc", Outcome(Classification.BUG, diagnostics=(renamed,))),
        ("c.sc", Outcome(Classification.BUG, diagnostics=(other[0],))),
    ]
    groups = dedup(outcomes)
    by_label = dict(outcomes)
    representatives = [(labels[0], by_label[labels[0]]) for labels in groups.values()]
    assert set(dedup(representatives)) == set(groups)
    assert sum(len(v) for v in groups.values()) == len(outcomes)
    for labels in groups.values():
        first = outcome_key(by_label[labels[0]])
        assert all(outcome_key(by_label[l]) == first for l in labels)


_POOL = [
    parse_file(corpus_path(name))
    for name in (
        "reborrow_siblings_disable.sc",
        "shared_ref_const_write.sc",
        "offset_beyond_borrow.sc",
        "into_raw_leak.sc",
        "box_raw_loan_clean.sc",
        "binding_width_mismatch.sc",
        "interior_mutability.sc",
        "double_free.sc",
        "spawn_join_worker.sc",
    )
]


@settings(max_examples=1000, deadline=None)
@given(
    index=st.integers(0, len(_POOL) - 1),
    model=st.sampled_from(["tb", "sb"]),
    seed=st.integers(0, 2**32),
)
def test_suite_full_run_determinism(index, model, seed):
    program = _POOL[index]
    config = MachineConfig(model=model, seed=seed)
    first = json_dumps(single_report(program, config, run_program(program, config)))
    second = json_dumps(single_report(program, config, run_program(program, config)))
    assert first == second


# Nested str-keyed payloads; text draws from all of Unicode, control
# characters included, and containers may be empty.
_json_text = st.text(max_size=6)
_json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_text, inner, max_size=3),
    max_leaves=10,
)


# Report records, each field drawn from what it may hold.
_events = st.builds(TagEvent, st.integers(), _json_text)
_frames = st.builds(TraceFrame, _json_text, _json_text, st.integers(), _json_text)
_traces = st.lists(_frames, max_size=2).map(tuple)
_histories = st.builds(
    TagHistory, st.integers(), _json_text, _events, st.none() | _events, st.none() | _events
)
_records = st.one_of(
    _frames,
    _events,
    _histories,
    st.builds(
        Diagnostic,
        st.sampled_from(DiagnosticKind),
        _json_text,
        _traces,
        _traces,
        st.lists(_histories, max_size=2).map(tuple),
        st.none() | _json_text,
        st.none() | _json_text,
        st.none() | st.integers(),
    ),
    st.builds(DedupKey, _json_text, _json_text, st.lists(_json_text, max_size=3).map(tuple)),
    st.builds(CorpusEntry, _json_text, _json_text, _json_text, _json_text, st.booleans()),
)


@settings(max_examples=1000, deadline=None)
@given(payload=st.dictionaries(_json_text, _json_payloads, max_size=3) | _records)
def test_suite_report_encoder_matches_json_dumps(payload):
    plain = asdict(payload) if is_dataclass(payload) else payload
    expected = json.dumps(plain, default=lambda e: e.value, indent=2, sort_keys=True) + "\n"
    assert json_dumps(payload) == expected



_SCALAR_TYPES = [IntType(bits, signed) for bits in (8, 16, 32, 64) for signed in (False, True)]
_stored_pointer = st.tuples(
    st.sampled_from([None, 0, 1]),  # no allocation, or the pointee made before or after the local
    st.integers(0, 2**64 - 1),  # the address, or an offset in [-24, 40) from the pointee's base
    st.sampled_from([0, 1 << 64, 3 << 64]),  # added past 2**64, leaving the offset stale
    st.sampled_from([None, WILDCARD, 1, 2]),
)
_local_op = st.one_of(st.none(), st.integers(-(2**70), 2**70), _stored_pointer)  # a load or a store


def _outcome(fn):
    try:
        return fn()
    except UbError as e:
        return (e.kind, e.message, e.details.get("address"))


@settings(max_examples=1000, deadline=None)
@given(
    ty=st.sampled_from([*_SCALAR_TYPES, PtrType(PtrKind.RAW_MUT, IntType(32, True))]),
    ops=st.lists(_local_op, min_size=1, max_size=4),
)
def test_suite_immediate_local_matches_the_byte_path(ty, ops):
    immediate, byte_path = Memory(tracker=TreeBorrowTracker), Memory(tracker=TreeBorrowTracker)
    size = size_of(ty)
    def at(line):
        immediate.line = byte_path.line = line

    at(1)
    pointees = [immediate.allocate(12, 4, AllocOrigin.FOREIGN_HEAP, "before")]
    byte_path.allocate(12, 4, AllocOrigin.FOREIGN_HEAP, "before")
    at(2)
    local = immediate.reserve(size, size, "x")
    alloc = byte_path.allocate(size, size, AllocOrigin.HOST_STACK, "x")
    at(3)
    pointees.append(immediate.allocate(12, 4, AllocOrigin.FOREIGN_HEAP, "after"))
    byte_path.allocate(12, 4, AllocOrigin.FOREIGN_HEAP, "after")
    ptr = byte_path.base_pointer(alloc)
    for line, op in enumerate(ops, start=4):
        at(line)
        if op is None:
            if isinstance(ty, PtrType):
                expected = _outcome(lambda: byte_path.read_pointer(ptr))
            else:
                expected = _outcome(lambda: byte_path.read_int(ptr, size, ty.signed))
            assert _outcome(lambda: immediate.load(local)) == expected
        elif isinstance(op, tuple) and isinstance(ty, PtrType):
            which, address, wrap, provenance = op
            if which is None:
                value = PointerValue(address + wrap, None, address, provenance)
            else:
                target, offset = pointees[which], address % 64 - 24
                value = PointerValue(target.base + offset + wrap, target.id, offset, provenance)
            immediate.store(local, value)
            byte_path.write_pointer(ptr, value)
        else:
            value = op[1] + op[2] if isinstance(op, tuple) else op
            if isinstance(ty, PtrType):
                # An integer lands in a pointer local as a bare address.
                immediate.store(local, PointerValue(value % (1 << 64), None, value % (1 << 64), None))
                byte_path.write_int(ptr, 8, value % (1 << 64))
            else:
                immediate.store(local, reinterpret(value, ty))
                byte_path.write_int(ptr, size, reinterpret(value, ty))
    assert immediate.from_exposed(local.base) == byte_path.from_exposed(alloc.base)
    made = immediate.allocations[local.id]
    assert made is local and not made.immediate
    assert (made.base, made.size, made.align, made.origin, made.label) == (
        alloc.base, alloc.size, alloc.align, alloc.origin, alloc.label
    )
    assert (made.octets, made.initmask) == (alloc.octets, alloc.initmask)
    assert made.fragments == alloc.fragments
    (made_root,) = immediate.tracker(made).history()
    assert (made_root,) == byte_path.tracker(alloc).history()


# A place in one of the suite's allocations: (allocation selector, offset). Offsets, spans and sizes
# lean to multiples of 8, where a pointer can be stored, so copies and fills often start or end at a
# stored pointer or cut across one.
_eights = st.integers(1, 5).map(lambda k: 8 * k)
_place = st.tuples(st.integers(0, 2), st.one_of(_eights, st.just(0), st.integers(-2, 44)))
_span = st.one_of(_eights, st.integers(-1, 44))
_width = st.sampled_from((1, 2, 4, 8))
_store_op = st.one_of(
    st.tuples(st.just("write_int"), _place, _width, st.integers(0, 2**64), st.booleans()),
    st.tuples(
        st.just("write_pointer"), _place, st.one_of(st.none(), _place), st.sampled_from((None, "root", 7, WILDCARD))
    ),
    st.tuples(st.just("write_uninit"), _place, _width),
    st.tuples(st.just("memset"), _place, st.integers(0, 511), _span),
    st.tuples(st.just("memcpy"), _place, _place, _span),
    st.tuples(st.just("assume_init"), _place, _span),
    st.tuples(st.just("read_int"), _place, _width, st.booleans(), st.booleans()),
    st.tuples(st.just("read_pointer"), _place, st.booleans()),
    st.tuples(st.just("read_blob"), _place, _span),
)


def _per_byte(octets, initmask):
    """Compact bytes as the oracle keeps them, None where uninitialized; an uninitialized byte holds 0."""
    assert all(not byte for byte, init in zip(octets, initmask) if not init)
    return [byte if init else None for byte, init in zip(octets, initmask)]


def _store_step(memory, op, args):
    """Run one `_store_op` on `memory`: what it returns, or the kind, message and address it raises."""
    def at(place):
        alloc = memory.allocations[place[0] % len(memory.allocations) + 1]
        return PointerValue(alloc.base + place[1], alloc.id, place[1], alloc.tag)

    if op == "write_int":
        place, size, raw, negative = args
        value = raw % (1 << (8 * size)) - (negative << (8 * size - 1))
        return _outcome(lambda: memory.write_int(at(place), size, value))
    if op == "write_pointer":
        place, target, provenance = args
        if target is None:
            value = PointerValue(0x1234, None, 0x1234, None if provenance == "root" else provenance)
        else:
            value = at(target)
            if provenance != "root":
                value = PointerValue(value.address, value.alloc_id, value.offset, provenance)
        return _outcome(lambda: memory.write_pointer(at(place), value))
    if op == "write_uninit":
        return _outcome(lambda: memory.write_uninit(at(args[0]), args[1]))
    if op == "memset":
        return _outcome(lambda: memory.memset(at(args[0]), args[1], args[2]))
    if op == "memcpy":
        return _outcome(lambda: memory.memcpy(at(args[0]), at(args[1]), args[2]))
    if op == "assume_init":
        return _outcome(lambda: memory.assume_init(at(args[0]), args[1]))
    if op == "read_int":
        place, size, signed, permissive = args
        return _outcome(lambda: memory.read_int(at(place), size, signed, permissive))
    if op == "read_pointer":
        return _outcome(lambda: memory.read_pointer(at(args[0]), args[1]))
    got = _outcome(lambda: memory.read_blob(at(args[0]), args[1]))
    return (_per_byte(got.octets, got.initmask), got.fragments) if isinstance(got, Blob) else got


@settings(max_examples=1000, deadline=None)
@given(
    allocs=st.lists(st.tuples(st.one_of(_eights, st.integers(0, 40)), st.sampled_from((1, 4, 8, 16))),
                    min_size=2, max_size=3),
    zeroed=st.booleans(),
    seed=st.integers(0, 2**32),
    ops=st.lists(_store_op, min_size=1, max_size=16),
)
# Around one stored pointer at 16: a fill and a copy-out that end where it starts and one that starts
# where it ends, each longer than its eight fragments; a copy of all of it, of its second half, and a
# fill across its first half.
@example(
    allocs=[(40, 8), (16, 8)], zeroed=False, seed=0,
    ops=[("write_pointer", (0, 16), (1, 4), "root"), ("memset", (0, 0), 1, 16), ("read_blob", (0, 0), 16),
         ("read_blob", (0, 24), 16), ("memcpy", (1, 0), (0, 16), 8), ("read_pointer", (1, 0), False),
         ("memcpy", (0, 0), (0, 20), 4), ("memset", (0, 12), 0, 8), ("read_blob", (0, 0), 40)],
)
def test_suite_byte_store_matches_the_per_byte_oracle(allocs, zeroed, seed, ops):
    store = Memory(seed=seed, zero_init_foreign=zeroed, tracker=TreeBorrowTracker)
    oracle = PerByteMemory(seed=seed, zero_init_foreign=zeroed, tracker=TreeBorrowTracker)
    origins = (AllocOrigin.FOREIGN_HEAP, AllocOrigin.HOST_STACK, AllocOrigin.FOREIGN_STACK)
    for memory in (store, oracle):
        for i, ((size, align), origin) in enumerate(zip(allocs, origins)):
            memory.allocate(size, align, origin, f"a{i}")
    for op, *args in ops:
        assert _store_step(store, op, args) == _store_step(oracle, op, args), op
        for alloc in store.allocations.values():
            assert _per_byte(alloc.octets, alloc.initmask) == oracle.values[alloc.id], op
            assert alloc.fragments == oracle.frags[alloc.id], op
