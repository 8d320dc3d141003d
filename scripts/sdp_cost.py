#!/usr/bin/env python3
"""Time the function-passing check and pair extraction against binder depth.

The binder-depth family has four rules ``g_i(s(X), Y) -> k(\\x1 ... xd.
g_j(X, h(x1, ..., xd)))``, j = i + 1 mod 4: each recursive call sits under d
binders, so each of its 4 pairs has d extra variables.  For each d the
system is parsed once, and ``is_pfp`` and ``extract_sdps`` are each called
``--runs`` times in this process; the best time of each is printed in
milliseconds, with the number of pairs.  The checkout's ``src`` comes first
on the import path, so no installed ``hoterm`` is timed; nothing is
written.

Usage: python3 scripts/sdp_cost.py [--depths 8 16 32 64] [--runs K]
"""

import argparse
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def binder_depth_system(d: int) -> str:
    """The text of the family's system at binder depth ``d``."""
    fun = " -> ".join(["nat"] * (d + 1))
    xs = [f"x{i}" for i in range(1, d + 1)]
    lines = ["basic nat", "sig s : nat -> nat", f"sig h : {fun}",
             f"sig k : ({fun}) -> nat", "var X : nat", "var Y : nat"]
    lines += [f"sig g{i} : nat -> nat -> nat" for i in range(4)]
    lines += [f"rule r{i}: g{i}(s(X), Y) -> k(\\{' '.join(xs)}. "
              f"g{(i + 1) % 4}(X, h({', '.join(xs)})))" for i in range(4)]
    return "\n".join(lines) + "\n"


def best_ms(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depths", type=int, nargs="+",
                        default=[8, 16, 32, 64], help="binder depths d")
    parser.add_argument("--runs", type=int, default=5,
                        help="calls of each stage; the best is printed")
    args = parser.parse_args()
    if args.runs < 1 or min(args.depths) < 1:
        parser.error("--runs and every depth must be at least 1")
    sys.dont_write_bytecode = True      # write nothing under src/
    sys.path.insert(0, str(ROOT / "src"))
    from hoterm.hrs import parse
    from hoterm.pfp import is_pfp
    from hoterm.sdp import extract_sdps

    print(f"binder-depth family, best of {args.runs} calls, ms")
    print(f"{'d':>4} {'is_pfp':>10} {'extract_sdps':>13} {'pairs':>6}")
    for d in args.depths:
        h = parse(binder_depth_system(d))
        pfp_ms = best_ms(args.runs, partial(is_pfp, h))
        sdp_ms = best_ms(args.runs, partial(extract_sdps, h))
        print(f"{d:>4} {pfp_ms:>10.3f} {sdp_ms:>13.3f} "
              f"{len(extract_sdps(h)):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
