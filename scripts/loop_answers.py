#!/usr/bin/env python3
"""Print the loop search's answers on the fixtures of a checkout, and their
digest.

For each fixture of ROOT (by default, the checkout this script is in), in
name order, it prints ``find_loop``'s answer and trace at ``max_steps`` 1,
2, 3, 6 and 10, then each loop seed with its ``rewrite_step``.  Terms print
with their binder hints.  The last line is the sha256 of all the lines
before it, so two checkouts that print the same last line gave the same
answers, traces and steps.  ROOT's ``src`` is imported, and no bytecode is
written into it.

Usage: python3 scripts/loop_answers.py [ROOT]
"""

import argparse
import hashlib
import sys
from pathlib import Path

MAX_STEPS = (1, 2, 3, 6, 10)


def answers(root: Path):
    """The lines for every fixture of ``root``."""
    from hoterm.hrs import load
    from hoterm.rewriting import find_loop, loop_seeds, rewrite_step

    for path in sorted((root / "fixtures").glob("*.hrs")):
        h = load(path)
        for n in MAX_STEPS:
            yield f"{path.stem} find_loop {n}: {find_loop(h, n)!r}"
        for seed in loop_seeds(h):
            yield f"{path.stem} seed {seed!r}: {rewrite_step(h, seed)!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src and fixtures are read")
    root = parser.parse_args().root.resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    digest = hashlib.sha256()
    for line in answers(root):
        print(line)
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
