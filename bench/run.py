"""hoterm benchmark: one workload per call, each process single-threaded.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

With ``--trace 0``, ``PROCESSES`` fresh processes run the workload one after
another (see worker.py), each for an equal share of ``--seconds``, and their
samples are pooled.  On a shared machine, stretches of seconds to minutes
run everything 1.3 to 1.7 times slower, whatever the program does.  So every
time reported is scaled to a fixed machine speed: a verdict's time is
multiplied by ``reference.NOMINAL_S`` over the median time of the reference
computation (reference.py) in the five passes around it.  Before each
process, the workload's process is also started twice and stopped as soon
as its first call could be made; ``setup_s`` is the median of those
start-up times, each scaled by the reference timed just before it.  The
report prints the unscaled figures beside the scaled ones.  With
``--trace 1`` a single process runs untraced for half the time and traced
for the other half; its per-layer times are not scaled.

The last line of standard output is the result as JSON.  Exits 2 without a
result when the checkout lacks the program or its fixtures, 1 when a run
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("corpus", "search", "loops")

PROCESSES = 3           # untraced runs are split over this many processes
STARTS_PER_PROCESS = 2  # timed set-up starts before each of them
DEADLINE_S = 170        # the whole call, set-up included
REF_WINDOW = 2          # passes on each side whose reference times count

# name -> unit, in the order they are reported.  failed_frac is printed
# beside them, but it is 0 on search and loops, and a metric of the JSON
# line must never be 0, so the JSON line carries ok_frac = 1 - failed_frac.
END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_tail": "ms",
    "verdict_ms_geomean": "ms",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The tail percentile of each workload, fixed so that a faster program,
# which fits more samples into a run, reports the same percentile.  Each
# leaves at least ten samples beyond it in a 30-second run; a shorter run
# steps down the ladder.
TAIL_PERCENTILE = {"corpus": 99.0, "search": 90.0, "loops": 90.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def _now() -> float:
    # system-wide, so the worker's clock reading can be compared with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run(cmd: list[str], env: dict, deadline: float) -> str:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - _now(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{' '.join(cmd[1:])} ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return out


def setup_seconds(worker: list[str], env: dict, deadline: float
                  ) -> tuple[float, float]:
    """Start-to-ready time of a fresh workload process, and the reference's
    time just before it."""
    ref = statistics.median(reference.measure() for _ in range(3))
    started = _now()
    out = _run(worker + ["--setup-only"], env, deadline)
    return float(out.split()[-1]) - started, ref


def scales(refs: list[float]) -> list[float]:
    """Per pass, NOMINAL_S over the median reference time of the passes
    around it: the factor that takes the pass's times to nominal speed."""
    return [reference.NOMINAL_S / statistics.median(
                refs[max(k - REF_WINDOW, 0):k + REF_WINDOW + 1])
            for k in range(len(refs))]


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int, preferred: float) -> float:
    for p in TAIL_LADDER:
        if p <= preferred and n * (1 - p / 100) >= MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def timings(workload: str, times: list[list[float]]) -> dict:
    """The timing metrics of ``times[i]``, problem i's samples."""
    flat = [t for ts in times for t in ts]
    medians = [statistics.median(ts) for ts in times]
    tail_p = tail_percentile(len(flat), TAIL_PERCENTILE[workload])
    tail = percentile(flat, tail_p)
    return {
        "verdicts_per_s": len(flat) / sum(flat),
        "verdict_ms_p50": statistics.median(flat) * 1e3,
        "verdict_ms_tail": tail * 1e3,
        "verdict_ms_geomean":
            math.exp(statistics.fmean(math.log(m) for m in medians)) * 1e3,
        "tail_note": f"(p{tail_p:g}, {sum(t > tail for t in flat)} of "
                     f"{len(flat)} samples beyond)",
        "medians": medians,
    }


def pooled(records: list[dict], scaled: bool) -> list[list[float]]:
    """Every process's samples, per problem, scaled to nominal speed or
    as measured."""
    times: list[list[float]] = [[] for _ in records[0]["problems"]]
    for r in records:
        factors = scales(r["refs"]) if scaled else [1.0] * len(r["refs"])
        for pool, ts in zip(times, r["times"]):
            pool.extend(t * f for t, f in zip(ts, factors))
    return times


def end_to_end(workload: str, records: list[dict]
               ) -> tuple[dict[str, float], list[str]]:
    """Scaled timings of all processes pooled; counts and memory of all."""
    chosen = timings(workload, pooled(records, scaled=True))
    raw = timings(workload, pooled(records, scaled=False))
    n = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    timed = ("verdicts_per_s", "verdict_ms_p50", "verdict_ms_tail",
             "verdict_ms_geomean")
    values = {name: chosen[name] for name in timed}
    values["ok_frac"] = 1 - failed / n
    values["decided_frac"] = sum(r["decided"] for r in records) / n
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    notes = {name: f"(unscaled {raw[name]:.6g})" for name in timed}
    notes["verdict_ms_tail"] += " " + chosen["tail_note"]
    notes["failed_frac"] = f"({failed} of {n}; in the JSON line as ok_frac)"
    notes["peak_rss_mb"] = "(largest of the processes)"
    shown = {**values, "failed_frac": failed / n}
    units = {**END_TO_END, "failed_frac": "ratio"}
    labels = records[0]["problems"]
    refs = [x for r in records for x in r["refs"]]
    lines = [f"workload {workload}: {len(labels)} problems, 1 closed-loop "
             f"client, {len(records)} processes, {len(refs)} passes, "
             f"{n} verdicts",
             f"  times scaled to nominal speed; the machine ran at "
             f"{reference.NOMINAL_S / statistics.median(refs):.3f} of it "
             f"(median reference {statistics.median(refs) * 1e3:.3f} ms, "
             f"nominal {reference.NOMINAL_S * 1e3:g} ms)"]
    lines += [f"  {name:<20} {v:>12.6g} {units[name]:<6} "
              f"{notes.get(name, '')}".rstrip() for name, v in shown.items()]
    lines.append("  per-problem median ms, scaled:")
    lines += [f"    {label:<32} {m * 1e3:10.3f}"
              for label, m in sorted(zip(labels, chosen["medians"]))]
    return values, lines


def failure_lines(records: list[dict]) -> list[str]:
    counts: dict[tuple, int] = {}
    for r in records:
        for label, why, known, n in r["failures"]:
            counts[label, why, known] = counts.get((label, why, known), 0) + n
    return [f"  {n} x {label}: {why}" + (" [known defect]" if known else "")
            for (label, why, known), n in sorted(counts.items())]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = _now() + DEADLINE_S
    needed = [ROOT / "src" / "hoterm" / "__init__.py", ROOT / "fixtures"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    env.pop("PYTHONPATH", None)
    worker = [sys.executable, str(WORKER), "--workload", args.workload,
              "--seed", str(args.seed)]
    processes = 1 if args.trace else PROCESSES
    share = ["--seconds", str(args.seconds / processes),
             "--trace", str(args.trace)]
    setups: list[tuple[float, float]] = []
    records = []
    try:
        if not args.trace:
            setup_seconds(worker, env, deadline)   # may compile bytecode
        for _ in range(processes):
            if not args.trace:
                setups += [setup_seconds(worker, env, deadline)
                           for _ in range(STARTS_PER_PROCESS)]
            records.append(json.loads(_run(worker + share, env, deadline)))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        (record,) = records
        metrics = record["layers"]
        print(f"workload {args.workload}: traced {record['passes']} passes; "
              "values are per pass")
        print("\n".join(f"  {name:<42} {m['value']:>14.6g} {m['unit']}"
                        for name, m in metrics.items()))
        path, count = record["spans"]
        print(f"spans of the first traced pass: {path} ({count} spans)")
    else:
        values, lines = end_to_end(args.workload, records)
        values["setup_s"] = statistics.median(
            t * reference.NOMINAL_S / ref for t, ref in setups)
        print("\n".join(lines))
        print(f"  {'setup_s':<20} {values['setup_s']:>12.6g} s      "
              f"(median of {len(setups)} starts; unscaled "
              f"{statistics.median(t for t, _ in setups):.6g})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failures = failure_lines(records)
    if failures:
        print("failures:")
        print("\n".join(failures))
    print(json.dumps({
        "correct": not any(r["unexpected"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
