#!/usr/bin/env python3
"""Time hoterm's start-up from fresh processes.

Prints the median wall time over N fresh processes of two commands:
``python -c "import hoterm.cli"`` and ``hoterm prove fixtures/sqsum.hrs``
(run through the launcher an installer writes for the console script).
Each is timed in two states, alternately, each with ``PYTHONPYCACHEPREFIX``
set to a temporary directory that one untimed run filled:

- cold: the checkout's bytecode removed from the prefix and ``-B`` given,
  so every ``hoterm`` module is compiled from source while the standard
  library loads from the prefix, as it would from its installed cache (an
  empty prefix would compile the standard library too, about 0.35 s that
  varies by about as much as all of hoterm's import cost);
- warm: the prefix as the untimed run left it.

The prefixes are removed at the end; nothing is written into the
checkout.  The checkout's ``src`` comes first on the import path, so no
installed ``hoterm`` is timed.

Usage: python3 scripts/import_cost.py [--runs N]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = "import sys\nfrom hoterm.cli import entry\nsys.exit(entry())\n"
COMMANDS = {
    "import hoterm.cli": ["-c", "import hoterm.cli"],
    "hoterm prove fixtures/sqsum.hrs":
        ["-c", LAUNCHER, "prove", str(ROOT / "fixtures" / "sqsum.hrs")],
}


def environment(prefix: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    caller = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([caller] if caller else []))
    return env


def timed(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited with {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace"))
    return elapsed


def cold_and_warm(args: list[str], runs: int) -> tuple[float, float]:
    """Median ms of the cold and of the warm start, timed alternately so
    that a slow stretch of the machine falls on both."""
    with tempfile.TemporaryDirectory(prefix="hoterm-pyc-") as top:
        env = {state: environment(os.path.join(top, state))
               for state in ("cold", "warm")}
        for state in env:
            timed([sys.executable, *args], env[state])   # fills the prefix
        # a prefix mirrors absolute source paths below itself
        shutil.rmtree(Path(top, "cold", *ROOT.joinpath("src").parts[1:]))
        argv = {"cold": [sys.executable, "-B", *args],
                "warm": [sys.executable, *args]}
        times: dict[str, list[float]] = {"cold": [], "warm": []}
        for _ in range(runs):
            for state in times:
                times[state].append(timed(argv[state], env[state]))
    return (1000 * statistics.median(times["cold"]),
            1000 * statistics.median(times["warm"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=25,
                        help="fresh processes per command and cache state")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    print(f"median wall time of {args.runs} fresh process(es), in ms")
    print(f"{'command':<34}{'cold':>10}{'warm':>10}")
    for name, command in COMMANDS.items():
        cold, warm = cold_and_warm(command, args.runs)
        print(f"{name:<34}{cold:>10.1f}{warm:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
