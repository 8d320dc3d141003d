#!/usr/bin/env python3
"""Time the loop search on the Ackermann system from fresh processes.

Each run starts a new Python process that loads ``fixtures/ackermann.hrs``
and calls ``find_loop(h, max_steps=N)`` once.  For that call it reports the
wall time, the answer, the calls it made to ``rewrite_step`` and to
``match`` (counted by wrappers bound to those names in ``hoterm.rewriting``,
as the benchmark's tracer binds its own, so the wall time includes their
cost), the collections the cyclic collector ran in each generation and the
time they took (both read through ``gc.callbacks``), the objects they
collected, and the process's peak resident set size.  The
checkout's ``src`` comes first on the import path, so no installed
``hoterm`` is timed; nothing is written into the checkout.

Usage: python3 scripts/loop_cost.py [--max-steps N] [--runs K]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in the fresh process; prints one JSON line
CHILD = """\
import gc, json, resource, sys, time
import hoterm.rewriting as R
from hoterm.hrs import load

h = load(sys.argv[1])
calls = {"rewrite_step": 0, "match": 0}

def counted(name, real):
    def wrapper(*args):
        calls[name] += 1
        return real(*args)
    return wrapper

for name in calls:
    setattr(R, name, counted(name, getattr(R, name)))
runs, seconds, collected, started = [0, 0, 0], [0.0], [0], [0.0]

def watch(phase, info):
    if phase == "start":
        started[0] = time.perf_counter()
    else:
        runs[info["generation"]] += 1
        seconds[0] += time.perf_counter() - started[0]
        collected[0] += info["collected"]

gc.callbacks.append(watch)
start = time.perf_counter()
answer = R.find_loop(h, max_steps=int(sys.argv[2]))
wall = time.perf_counter() - start
gc.callbacks.remove(watch)
print(json.dumps({
    "wall_s": wall, "answer": "none" if answer is None else "loop",
    "rewrite_step": calls["rewrite_step"], "match": calls["match"],
    "collections": runs, "gc_s": seconds[0], "collected": collected[0],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def one_run(max_steps: int) -> dict:
    env = dict(os.environ)
    caller = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([caller] if caller else []))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD,
         str(ROOT / "fixtures" / "ackermann.hrs"), str(max_steps)],
        env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the run exited with {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-steps", type=int, default=30,
                        help="the max_steps given to find_loop")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh processes, one after another")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.max_steps < 0:
        parser.error("--max-steps must not be negative")

    print(f"find_loop(ackermann, max_steps={args.max_steps}), "
          f"{args.runs} fresh process(es)")
    print(f"{'run':>3}{'wall_s':>9}{'answer':>8}{'rewrite_step':>14}"
          f"{'match':>8}{'gen0':>7}{'gen1':>6}{'gen2':>6}{'gc_s':>8}"
          f"{'collected':>11}{'peak_rss_mb':>13}")
    walls = []
    for i in range(args.runs):
        r = one_run(args.max_steps)
        walls.append(r["wall_s"])
        gen0, gen1, gen2 = r["collections"]
        print(f"{i + 1:>3}{r['wall_s']:>9.3f}{r['answer']:>8}"
              f"{r['rewrite_step']:>14}{r['match']:>8}{gen0:>7}{gen1:>6}"
              f"{gen2:>6}{r['gc_s']:>8.3f}{r['collected']:>11}"
              f"{r['peak_rss_mb']:>13.1f}")
    if args.runs > 1:
        print(f"median wall_s {statistics.median(walls):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
