#!/usr/bin/env python3
"""Time ``hrs.parse`` alone from fresh processes.

Three sets of texts are read: the bundled fixtures, and the texts of the
benchmark's ``search`` and ``loops`` workloads at seed 1 (bench/
workloads.py).  Each run starts a new Python process, which parses every
text of a set once to warm up and then ``--passes`` more times, and
reports the median time of a pass per system, in microseconds.  With ``--baseline DIR``
each run also times the checkout at DIR, in a process of its own; the two
alternate which goes first.  A checkout's ``src`` comes first on its
process's import path, so no installed ``hoterm`` is timed; nothing is
written into either checkout.

Usage: python3 scripts/parse_cost.py [--runs K] [--passes N]
                                     [--baseline DIR]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ("fixtures", "search", "loops")

# run in the fresh process: reads {set: [text, ...]} on stdin and prints
# {set: microseconds per system} as one JSON line
CHILD = """\
import json, statistics, sys, time
from hoterm.hrs import parse

passes = int(sys.argv[1])
out = {}
for name, texts in json.load(sys.stdin).items():
    for text in texts:
        parse(text)
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for text in texts:
            parse(text)
        times.append((time.perf_counter() - start) / len(texts))
    out[name] = statistics.median(times) * 1e6
print(json.dumps(out))
"""


def texts() -> dict[str, list[str]]:
    """The texts of each set, read with this checkout's program."""
    sys.dont_write_bytecode = True      # write nothing under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    out = {"fixtures": [p.read_text() for p in
                        sorted((ROOT / "fixtures").glob("*.hrs"))]}
    with tempfile.TemporaryDirectory() as scratch:
        for name in ("search", "loops"):
            problems = workloads.Workload(name, 1, ROOT,
                                          Path(scratch)).problems
            out[name] = list(dict.fromkeys(p.text for p in problems))
    return out


def one_run(checkout: Path, sets: str, passes: int) -> dict:
    env = dict(os.environ)
    caller = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([caller] if caller else []))
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, str(passes)],
                          input=sets, env=env, cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the run in {checkout} exited with "
                         f"{proc.returncode}:\n" + proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh processes per checkout")
    parser.add_argument("--passes", type=int, default=20,
                        help="timed passes over each set in a process")
    parser.add_argument("--baseline", type=Path,
                        help="another checkout to time in alternation")
    args = parser.parse_args()
    if args.runs < 1 or args.passes < 1:
        parser.error("--runs and --passes must be at least 1")
    if args.baseline and not (args.baseline / "src" / "hoterm").is_dir():
        parser.error(f"{args.baseline} holds no src/hoterm")

    sets = texts()
    checkouts = {"this": ROOT}
    if args.baseline:
        checkouts["baseline"] = args.baseline.resolve()
    print(f"parse alone, microseconds per system (median of {args.passes} "
          f"passes), {args.runs} fresh process(es) per checkout")
    print(f"{'run':>3} {'checkout':<9}"
          + "".join(f"{f'{name} ({len(sets[name])})':>15}" for name in SETS))
    payload = json.dumps(sets)
    times: dict[str, list[dict]] = {name: [] for name in checkouts}
    for i in range(args.runs):
        order = list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]
        for name in order:
            r = one_run(checkouts[name], payload, args.passes)
            times[name].append(r)
            print(f"{i + 1:>3} {name:<9}"
                  + "".join(f"{r[s]:>15.1f}" for s in SETS))
    medians = {name: {s: statistics.median(r[s] for r in runs)
                      for s in SETS} for name, runs in times.items()}
    if args.runs > 1:
        for name, m in medians.items():
            print(f"{'med':>3} {name:<9}"
                  + "".join(f"{m[s]:>15.1f}" for s in SETS))
    if args.baseline:
        print(f"{'':>3} {'ratio':<9}" + "".join(
            f"{medians['this'][s] / medians['baseline'][s]:>15.3f}"
            for s in SETS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
