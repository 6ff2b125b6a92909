"""Seeded scenario generators for the seamcheck benchmark.

Every workload is a list of `Case`s: scenario text plus the outcome each
model must reach. Expected outcomes come from how a scenario is built (or,
for the bundled corpus, from the `expect` lines its authors wrote), never
from running seamcheck, so a verdict change shows up as a mismatch.

The seed jitters each size by up to 1% around a fixed ladder and shuffles
the order, so two seeds do the same amount of work on different inputs.
"""

from __future__ import annotations

import glob
import os
import random
import re
from dataclasses import dataclass

# Outcomes that are not violations under `--diff`; everything else a model
# reports is a diagnostic kind, i.e. a violation.
_NON_VIOLATIONS = ("pass", "memory-leak", "unsupported", "timeout")


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    tb: str  # expected outcome tag under tb
    sb: str  # expected outcome tag under sb
    diff: bool = False  # also produce a `--diff` report

    @property
    def verdict(self) -> str:
        tb_bad = self.tb not in _NON_VIOLATIONS
        sb_bad = self.sb not in _NON_VIOLATIONS
        if tb_bad == sb_bad:
            return "agree"
        return "sb-only-violation" if sb_bad else "tb-only-violation"


# ---- tags: many tags on a small local ------------------------------------------


def wide(n: int, ty: str, bug: bool = False) -> str:
    lines = ["host fn main()", f"  let x: {ty} = 7"]
    lines += [f"  let s{i}: &{ty} = &x" for i in range(n)]
    lines += [f"  let v{i}: {ty} = *s{i}" for i in range(n)]
    lines += ["  assert_eq v0 7"]
    if bug:
        # tb: a write through x is a foreign write for every shared child,
        # Frozen -> Disabled, so the read through s0 is a child read of a
        # Disabled tag (expired-permission). sb: the write pops every SharedRO
        # item above x's Unique, so s0 has no item left (access-out-of-bounds).
        lines += ["  x = 9", f"  let w: {ty} = *s0"]
    return "\n".join(lines + ["end", ""])


def siblings(n: int, ty: str) -> str:
    lines = [
        f"bind put = c_put(*mut {ty})",
        "",
        "foreign fn c_put(p: ptr)",
        f"  store {ty} p 13",
        "end",
        "",
        "host fn main()",
        f"  let x: {ty} = 42",
    ]
    for i in range(n):
        # Each reborrow is made after the previous one's write, so sb has
        # nothing stale to pop and tb only freezes or disables old siblings.
        lines += [
            f"  let r{i}: &mut {ty} = &mut x",
            f"  let p{i}: *mut {ty} = r{i} as *mut {ty}",
            f"  call put(p{i})",
        ]
    lines += ["  let v: " + ty + " = x", "  assert_eq v 13"]
    return "\n".join(lines + ["end", ""])


def deep(n: int, ty: str) -> str:
    lines = ["host fn main()", f"  let x: {ty} = 1", f"  let r0: &mut {ty} = &mut x"]
    lines += [f"  let r{i}: &mut {ty} = &mut *r{i - 1}" for i in range(1, n)]
    lines += [f"  *r{n - 1} = 5", f"  let v: {ty} = x", "  assert_eq v 5"]
    return "\n".join(lines + ["end", ""])


# ---- buffers: few tags, many bytes ---------------------------------------------


def bigbuf(n: int) -> str:
    """Zeroed array, `&mut` then raw; foreign memset, malloc, memcpy out, free."""
    return f"""bind fill = c_fill(*mut u8)

foreign fn c_fill(p: ptr)
  memset p 7 {n}
  let q = malloc {n}
  memcpy q p {n}
  free q
end

host fn main()
  let a: [u8; {n}] = zeroed
  let r: &mut [u8; {n}] = &mut a
  let p: *mut [u8; {n}] = r as *mut [u8; {n}]
  let b: *mut u8 = p as *mut u8
  call fill(b)
  let last: u8 = a[{n - 1}]
  assert_eq last 7
end
"""


def readback(n: int) -> str:
    """Foreign code fills a heap block and copies it in; the host reads it all back."""
    return f"""bind load_in = c_load_in(*mut u8)

foreign fn c_load_in(p: ptr)
  let q = malloc {n}
  memset q 5 {n}
  memcpy p q {n}
  free q
end

host fn main()
  let a: [u8; {n}] = zeroed
  let r: &mut [u8; {n}] = &mut a
  let p: *mut [u8; {n}] = r as *mut [u8; {n}]
  let b: *mut u8 = p as *mut u8
  call load_in(b)
  let copy: [u8; {n}] = *r
  let first: u8 = copy[0]
  assert_eq first 5
end
"""


# ---- crossings: many boundary calls ----------------------------------------------


def crossings(n: int, m: int) -> str:
    """Ping-pong of n callbacks, then m by-value struct and m variadic calls."""
    calls = "\n".join("  call bump(p)" for _ in range(n))
    byval = "\n".join(
        f"  let bits{i}: i64 = call pack(pt)\n  assert_eq bits{i} 8589934593" for i in range(m)
    )
    varargs = "\n".join(
        f"  let got{i}: i64 = call logf(fp, k)\n  assert_eq got{i} 42" for i in range(m)
    )
    return f"""type Pt
  x: u32
  y: u32
end

bind ping = c_ping(*mut i64)
bind pack = c_pack(Pt) -> i64
bind logf = c_logf(*const u8, ...) -> i64

foreign fn c_ping(p: ptr)
{calls}
end

foreign fn c_pack(bits: i64) -> i64
  return bits
end

foreign fn c_logf(fmt: ptr, ...) -> i64
  let k = vararg0
  return k
end

host fn bump(q: *mut i64)
  let v: i64 = *q
  *q = 6
end

host fn main()
  let x: i64 = 5
  let raw: *mut i64 = &raw mut x
  call ping(raw)
  let after: i64 = x
  assert_eq after 6
  let pt: Pt = zeroed
  pt.x = 1
  pt.y = 2
{byval}
  let f: [u8; 4] = zeroed
  let whole: *const [u8; 4] = &raw const f
  let fp: *const u8 = whole as *const u8
  let k: i32 = 42
{varargs}
end
"""


# ---- the workloads ---------------------------------------------------------------

# Size ladders per shape. Each pass runs every entry once under tb and once
# under sb; `scale` shrinks them for the smoke test. Each ladder has an odd
# number of entries whose costs are well apart, so the median verdict falls
# inside the middle entry's samples and the tail inside the costliest one's.
# Sizes stop where a 25 s run on a 2 GHz Xeon with a busy host still holds
# some fifty passes (corpus: 150), so each case's 90th-percentile verdict
# (see `run.py`) has five or more above it.
TAGS = [
    ("wide", 40, "i64"), ("siblings", 40, "i32"), ("deep", 80, "i64"),
    ("deep", 180, "i32"),
    ("wide", 100, "i32"), ("siblings", 80, "i64"), ("wide-bug", 140, "i32"),
]
BUFFERS = [("bigbuf", 1024), ("readback", 1024), ("bigbuf", 2048), ("readback", 2048), ("bigbuf", 4096)]
CROSSINGS = [(25, 5), (50, 5), (100, 10), (150, 10), (200, 10)]


def _jitter(rng: random.Random, base: int, scale: float) -> int:
    n = max(1, round(base * scale))
    return max(1, n + rng.randint(-(n // 100), n // 100))


def _tags(rng: random.Random, scale: float) -> list[Case]:
    out = []
    for shape, base, ty in TAGS:
        n = _jitter(rng, base, scale)
        name = f"{shape}-{n}-{ty}"
        if shape == "wide":
            out.append(Case(name, wide(n, ty), "pass", "pass"))
        elif shape == "wide-bug":
            out.append(Case(name, wide(n, ty, bug=True), "expired-permission", "access-out-of-bounds"))
        elif shape == "siblings":
            out.append(Case(name, siblings(n, ty), "pass", "pass"))
        else:
            out.append(Case(name, deep(n, ty), "pass", "pass"))
    return out


def _buffers(rng: random.Random, scale: float) -> list[Case]:
    out = []
    for shape, base in BUFFERS:
        n = _jitter(rng, base, scale)
        text = bigbuf(n) if shape == "bigbuf" else readback(n)
        out.append(Case(f"{shape}-{n}", text, "pass", "pass"))
    return out


def _crossings(rng: random.Random, scale: float) -> list[Case]:
    out = []
    for base_n, base_m in CROSSINGS:
        n, m = _jitter(rng, base_n, scale), _jitter(rng, base_m, scale)
        out.append(Case(f"pingpong-{n}-{m}", crossings(n, m), "pass", "pass"))
    return out


_EXPECT = re.compile(r"^\s*expect\s+(?:(tb|sb)\s*:\s*)?([a-z-]+)\s*(?:#.*)?$")


def expectations(text: str) -> tuple[str, str]:
    """(tb, sb) outcomes from a scenario's `expect` lines; none means pass."""
    general, per = None, {}
    for line in text.splitlines():
        m = _EXPECT.match(line)
        if m:
            if m.group(1):
                per[m.group(1)] = m.group(2)
            else:
                general = m.group(2)
    default = general or "pass"
    return per.get("tb", default), per.get("sb", default)


def corpus_cases(corpus_dir: str) -> list[Case]:
    paths = sorted(glob.glob(os.path.join(corpus_dir, "*.sc")))
    if not paths:
        raise FileNotFoundError(f"no .sc files in {corpus_dir}")
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        tb, sb = expectations(text)
        out.append(Case(os.path.join("corpus", os.path.basename(path)), text, tb, sb, diff=True))
    return out


def build(workload: str, seed: int, corpus_dir: str, scale: float = 1.0) -> list[Case]:
    """The cases of one workload, in the seed's order."""
    rng = random.Random(seed)
    if workload == "corpus":
        cases = corpus_cases(corpus_dir)
    elif workload == "tags":
        cases = _tags(rng, scale)
    elif workload == "buffers":
        cases = _buffers(rng, scale)
    elif workload == "crossings":
        cases = _crossings(rng, scale)
    else:
        raise ValueError(f"unknown workload: {workload}")
    rng.shuffle(cases)
    return cases


WORKLOADS = ("corpus", "tags", "buffers", "crossings")
