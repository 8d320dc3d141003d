"""Self-check of the benchmark.

    python3 bench/selfcheck.py [--seconds 1]

Runs a small form of every workload twice untraced and twice traced, and
checks that
  * every end-to-end metric is printed by name with its unit, and the JSON
    line carries exactly the metrics BENCHMARK.json lists, with their units;
  * failed_frac and decided_frac are exactly what the known-answer table
    predicts for one pass over the workload's problems;
  * every per-layer count (calls, pairs) repeats exactly between the two
    traced runs;
and that run.py fails without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from answers import (MAYBE, NONTERMINATING, PFP, PREDICTED,  # noqa: E402
                     RAISES, SDP_PAIRS, TERMINATING)
from run import END_TO_END, WORKLOADS  # noqa: E402
from worker import OUT, PER_LAYER  # noqa: E402
from workloads import Workload  # noqa: E402


def predicted_fractions(name: str) -> tuple[float, float]:
    """(failed_frac, decided_frac) the table predicts for one pass."""
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        problems = Workload(name, 0, ROOT, scratch).problems
    finally:
        shutil.rmtree(scratch)
    answers = []
    for p in problems:
        if p.mode == "pfp":
            answers.append("yes" if PFP[p.system] else "no")
        elif p.mode == "sdp":
            answers.append(str(SDP_PAIRS[p.system]))
        else:
            answers.append(PREDICTED[p.system, p.mode])
    assert all(a in (TERMINATING, NONTERMINATING, MAYBE, RAISES, "yes", "no")
               or a.isdigit() for a in answers)
    failed = sum(a == RAISES for a in answers)
    decided = sum(a in (TERMINATING, NONTERMINATING) for a in answers)
    return failed / len(answers), decided / len(answers)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failures += not ok


def check_workload(checks: Checks, name: str, seconds: str,
                   declared: dict) -> None:
    failed_frac, decided_frac = predicted_fractions(name)
    for attempt in (1, 2):
        proc = run(ROOT, "--workload", name, "--seed", "1",
                   "--seconds", seconds, "--trace", "0")
        checks.expect(proc.returncode == 0, f"{name} run {attempt} exits 0")
        if proc.returncode:
            print(proc.stderr)
            return
        *report, last = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(last)
        metrics = result["metrics"]
        checks.expect(result["correct"], f"{name}: every answer is correct")
        checks.expect(
            {k: v["unit"] for k, v in metrics.items()}
            == declared["end_to_end"] == END_TO_END,
            f"{name}: JSON metrics and units are those of BENCHMARK.json")
        printed = "\n".join(report)
        for metric, unit in {**END_TO_END, "failed_frac": "ratio"}.items():
            checks.expect(
                re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}",
                          printed, re.M) is not None,
                f"{name}: prints {metric} {unit}")
        checks.expect(
            abs(1 - metrics["ok_frac"]["value"] - failed_frac) < 1e-12,
            f"{name}: failed_frac is the predicted {failed_frac:.6g}")
        checks.expect(
            abs(metrics["decided_frac"]["value"] - decided_frac) < 1e-12,
            f"{name}: decided_frac is the predicted {decided_frac:.6g}")

    counts = []
    for attempt in (1, 2):
        proc = run(ROOT, "--workload", name, "--seed", "1",
                   "--seconds", seconds, "--trace", "1")
        checks.expect(proc.returncode == 0,
                      f"{name} traced run {attempt} exits 0")
        if proc.returncode:
            print(proc.stderr)
            return
        metrics = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])[
            "metrics"]
        checks.expect(
            {k: v["unit"] for k, v in metrics.items()}
            == declared["per_layer"]
            == {k: unit for k, (unit, _, _) in PER_LAYER.items()},
            f"{name}: traced metrics and units are those of BENCHMARK.json")
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    checks.expect(counts[0] == counts[1],
                  f"{name}: per-layer counts repeat exactly "
                  f"({len(counts[0])} counts)")


def check_bare_directory(checks: Checks) -> None:
    """The benchmark alone, without the program, must fail cleanly."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "corpus", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    checks.expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
                  "without the program, run.py fails and prints no result")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    check_bare_directory(checks)
    for name in WORKLOADS:
        check_workload(checks, name, args.seconds, declared)
    print(f"{checks.failures} check(s) failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
