#!/usr/bin/env python3
"""Time the precedence search of the reduction-pair technique.

For each family and size, ``prove_text`` runs on the system with the
reduction pair alone (``--techniques redpair``) ``--runs`` times in this
process.  The best time is printed in milliseconds, with the verdict and the
constraint assessments the precedence search charged in one call (the
``assessed`` counts of the orders it compiled, summed).  The families,
which ``tests/test_searches.py`` loads from here:

- ``deep``: the chain g_0(s(X)) -> g_1(X) -> ... -> X beside f(b) -> f(a),
  k symbols in all.  b > a is needed and the call-graph guess gets it
  wrong, so the walk runs.
- ``unorientable``: the chain beside f(X, s(Y)) -> f(s(X), Y), k symbols;
  no path order orients the pair.
- ``rotating``: f_i(s(X), Y) -> f_i+1(X, s(Y)), closed into a cycle of n
  symbols; no path order orients the cycle.
- ``unsorted``: ``deep`` with the chain's names unpadded.  Past g10 they
  sort out of chain order (g10 < g100 < g11), so the walk drops many
  prefixes before it finds the next link.

The checkout's ``src`` comes first on the import path, so no installed
``hoterm`` is timed; nothing is written.

Usage: python3 scripts/precedence_cost.py [--deep K ...]
           [--unorientable K ...] [--rotating N ...] [--unsorted K ...]
           [--runs R]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _system(sig, variables, rules) -> str:
    lines = ["basic nat", "sig z : nat", "sig s : nat -> nat"]
    lines += [f"sig {name} : {ty}" for name, ty in sig]
    lines += [f"var {v} : nat" for v in variables]
    lines += [f"rule {name}: {lhs} -> {rhs}" for name, lhs, rhs in rules]
    return "\n".join(lines) + "\n"


def _g_chain(m: int, digits: int):
    g = [f"g{i:0{digits}d}" for i in range(m)]
    sig = [(name, "nat -> nat") for name in g]
    rules = [(g[i], f"{g[i]}(s(X))", f"{g[i + 1]}(X)" if i + 1 < m else "X")
             for i in range(m)]
    return sig, rules


def deep(k: int, digits: int = 4) -> str:
    sig, rules = _g_chain(k - 4, digits)
    sig += [("a", "nat"), ("b", "nat"), ("f", "nat -> nat")]
    rules.append(("f", "f(b)", "f(a)"))
    return _system(sig, ("X",), rules)


def unorientable(k: int) -> str:
    sig, rules = _g_chain(k - 2, 4)
    sig.append(("f", "nat -> nat -> nat"))
    rules.append(("f", "f(X, s(Y))", "f(s(X), Y)"))
    return _system(sig, ("X", "Y"), rules)


def rotating(n: int) -> str:
    sig = [(f"f{i:04d}", "nat -> nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f{i:04d}(s(X), Y)",
              f"f{(i + 1) % n:04d}(X, s(Y))") for i in range(n)]
    return _system(sig, ("X", "Y"), rules)


FAMILIES = {"deep": (deep, [10, 24, 100, 300]),
            "unorientable": (unorientable, [10, 100]),
            "rotating": (rotating, [100, 600]),
            "unsorted": (lambda k: deep(k, digits=1), [25, 60, 124])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for name, (_, sizes) in FAMILIES.items():
        parser.add_argument(f"--{name}", type=int, nargs="*", default=sizes,
                            help=f"sizes of the {name} family")
    parser.add_argument("--runs", type=int, default=5,
                        help="calls per system; the best is printed")
    args = parser.parse_args()
    sizes = {name: getattr(args, name) for name in FAMILIES}
    if args.runs < 1 or any(k < 4 for ks in sizes.values() for k in ks):
        parser.error("--runs must be at least 1 and every size at least 4")
    sys.dont_write_bytecode = True      # write nothing under src/
    sys.path.insert(0, str(ROOT / "src"))
    import hoterm.criteria as C
    from hoterm.proof import ProverConfig, prove_text

    orders = []
    compile_order = C._component_order

    def keeping(*args):
        orders.append(compile_order(*args))
        return orders[-1]

    C._component_order = keeping
    redpair = ProverConfig(
        analysis=C.AnalysisConfig(techniques=("redpair",)))
    print(f"prove_text with --techniques redpair, best of {args.runs} calls")
    print(f"{'family':<13} {'size':>5} {'ms':>10} {'assessed':>9}  verdict")
    for name, (family, _) in FAMILIES.items():
        for k in sizes[name]:
            text = family(k)
            best = float("inf")
            for _ in range(args.runs):
                del orders[:]
                start = time.perf_counter()
                proof = prove_text(text, redpair)
                best = min(best, time.perf_counter() - start)
            reasons = [r for failure in proof.component_proofs.values()
                       for r in getattr(failure, "reasons", ())]
            budget = any("budget" in r for r in reasons)
            print(f"{name:<13} {k:>5} {best * 1e3:>10.2f} "
                  f"{sum(o.assessed for o in orders):>9}  "
                  f"{proof.verdict.kind}{' (budget)' if budget else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
