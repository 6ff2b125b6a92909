"""Shared fixtures, path helpers and memory helpers for the test suite."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from seamcheck.memory import Allocation, AllocOrigin, BorrowTracker, Memory

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"


def corpus_path(name: str) -> str:
    """Absolute path of a bundled scenario file."""
    path = CORPUS_DIR / name
    if not path.is_file():
        raise FileNotFoundError(path)
    return str(path)


def corpus_files() -> list[str]:
    """All bundled scenario files, sorted for stable iteration order."""
    return sorted(str(p) for p in CORPUS_DIR.glob("*.sc"))


@functools.cache
def bench_workloads():
    """The benchmark's scenario generators, `bench/workloads.py`, loaded as a module."""
    # `Case` is a dataclass, which looks its module up in `sys.modules`.
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO_ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def init_mask(alloc: Allocation) -> tuple[bool, ...]:
    """Which bytes of the allocation are initialized."""
    return tuple(map(bool, alloc.initmask))


def make_tracker(cls: type[BorrowTracker], size: int) -> BorrowTracker:
    """A `cls` tracker for a `size`-byte alloc#1 whose root tag#1 is labelled "root".

    It is built as a run builds one, by `Memory.tracker`, and draws later tags from 2 on.
    """
    memory = Memory(tracker=cls)
    return memory.tracker(memory.allocate(size, 1, AllocOrigin.HOST_HEAP, "root"))


@pytest.fixture()
def corpus_dir() -> Path:
    return CORPUS_DIR
