"""A fixed pure-Python computation that gauges the machine's speed.

On a shared machine the same Python code runs 1.3 to 1.7 times slower for
stretches of seconds to minutes, whatever the program does.  The benchmark
runs ``measure()`` between passes over a workload and scales each verdict's
time by ``NOMINAL_S / <the reference's time nearby>``, so that a slow
stretch slows the reference and the program alike and cancels out.  The
reference shares no code with ``hoterm``; a change to the program does not
change it.

It is two halves of about equal time.  One builds, hashes and prints trees
of frozen dataclasses, as the prover does with its terms; in a slow stretch
it slows a little more than the prover.  The other is integer arithmetic in
a loop, which slows a little less.  Their sum tracked the prover's own
slowdown to within a few per cent on a shared 2-vCPU virtual machine.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# The reference's time, in seconds, when that machine ran at full speed
# (Python 3.11).  Scaled times read as milliseconds at that speed.
NOMINAL_S = 0.0065


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("z" if i % 2 else "o", ())
    return _Node(f"f{i % 5}", (_tree(depth - 1, 2 * i),
                               _tree(depth - 1, 2 * i + 1)))


def _subtrees(t: _Node) -> list[_Node]:
    out = [t]
    for a in t.args:
        out.extend(_subtrees(a))
    return out


def _show(t: _Node) -> str:
    if not t.args:
        return t.name
    return t.name + "(" + ", ".join(_show(a) for a in t.args) + ")"


def _trees() -> int:
    seen: set[_Node] = set()
    size = 0
    for r in range(4):
        t = _tree(7, r)
        seen.update(_subtrees(t))
        size += len(_show(t))
    return size + len(seen)


def _arithmetic() -> int:
    x = 0
    for i in range(40_000):
        x = (x * 31 + i) % 1_000_003
    return x


def measure() -> float:
    """Seconds one run of the reference takes now.  The collector is off
    meanwhile, so the program's heap does not change the reference's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _trees()
        _arithmetic()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
