"""One workload, run by one closed-loop client in this single process.

``run.py`` starts this file; run the benchmark through ``run.py``.  With
``--setup-only`` the process stops as soon as the first call could be made
and prints ``ready <CLOCK_MONOTONIC seconds>``, which ``run.py`` uses to time
set-up.  Otherwise it runs one warm-up pass, measures for ``--seconds``
seconds, and prints one JSON record: every verdict's time by problem and
pass, the reference computation's time after each pass (see reference.py),
the failures, and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import hoterm  # noqa: E402  (after the path of the checkout's source)

import reference  # noqa: E402
from tracer import VERDICT, Tracer  # noqa: E402
from workloads import Outcome, Problem, Workload  # noqa: E402

# Per-layer metrics of the traced run, named <module>.<function>.<quantity>.
# Every value is per pass over the workload's problem list.
_UNIT = {"ms": "ms", "self_ms": "ms", "calls": "count", "hit_ratio": "ratio"}
_LAYER_METRICS = (
    "hrs.parse.self_ms", "pfp.is_pfp.self_ms", "sdp.extract_sdps.self_ms",
    "proof.emit_text.self_ms", "proof.emit_json.self_ms",
    "proof.emit_dot.self_ms", "cli.main.self_ms",
    "normalize.normalize.calls", "normalize.normalize.self_ms",
    "normalize.apply_subst.calls", "normalize.apply_subst.self_ms",
    "graph.build_graph.self_ms", "graph.recursion_components.calls",
    "graph.recursion_components.self_ms",
    "criteria.search_pi.self_ms", "criteria.search_pi.hit_ratio",
    "criteria.check_subterm_criterion.calls",
    "criteria.check_subterm_criterion.self_ms",
    "criteria.search_precedence.self_ms",
    "criteria.check_reduction_pair.calls",
    "criteria.check_reduction_pair.self_ms",
    "criteria.check_reduction_pair.hit_ratio",
    "criteria.lpo_compare.calls", "criteria.lpo_compare.self_ms",
    "criteria.analyze_component.ms",
    "terms.print_term.calls", "terms.print_term.self_ms",
    "terms.subterms.calls", "terms.subterms.self_ms",
    "rewriting.find_loop.ms", "rewriting.bounded_search.calls",
    "rewriting.rewrite_step.calls", "rewriting.rewrite_step.self_ms",
    "rewriting.match.calls", "rewriting.match.self_ms",
    "rewriting.match.hit_ratio",
    "proof.prove.ms",
)
# name -> (unit, traced label, quantity)
PER_LAYER = {name: (_UNIT[name.rpartition(".")[2]], *name.rsplit(".", 1))
             for name in _LAYER_METRICS}
PER_LAYER["sdp.pairs"] = ("count", "sdp.extract_sdps", "pairs")
PER_LAYER["trace.overhead_frac"] = ("ratio", None, None)


@dataclass(frozen=True)
class Sample:
    problem: int
    seconds: float
    outcome: Outcome


def run_client(workload: Workload, seconds: float, call,
               after_pass=lambda: None) -> tuple[list[Sample], list[float]]:
    """Closed loop, one client: call each problem in turn and wait for its
    answer; stop after the pass during which ``seconds`` ran out.  Returns
    the samples and, one per pass, the reference's time after the pass."""
    samples: list[Sample] = []
    refs: list[float] = []
    start = time.perf_counter()
    while True:
        for i, p in enumerate(workload.problems):
            samples.append(Sample(i, *_timed(workload, p, call)))
        after_pass()
        refs.append(reference.measure())
        if time.perf_counter() - start >= seconds:
            return samples, refs


def _timed(workload: Workload, p: Problem, call) -> tuple[float, Outcome]:
    error = result = None
    t0 = time.perf_counter()
    try:
        result = call(p)
    except (Exception, SystemExit) as exc:   # a crash is a counted failure
        error = exc
    elapsed = time.perf_counter() - t0
    return elapsed, workload.judge(p, result, error)


def throughput(samples: list[Sample]) -> float:
    return len(samples) / sum(s.seconds for s in samples)


def per_layer(snaps: list[dict], overhead: float) -> dict[str, float]:
    passes = len(snaps) - 1
    deltas = [{label: [b - a for a, b in zip(s0[label], s1[label])]
               for label in s1} for s0, s1 in zip(snaps, snaps[1:])]
    first, last = snaps[0], snaps[-1]
    values = {}
    for name, (_, label, quantity) in PER_LAYER.items():
        if label is None:
            values[name] = overhead
            continue
        calls, hits, amount = (b - a for a, b in
                               zip(first[label][:3], last[label][:3]))
        if quantity == "calls":
            values[name] = calls / passes
        elif quantity == "pairs":
            values[name] = amount / passes
        elif quantity == "hit_ratio":
            values[name] = hits / calls if calls else 0.0
        else:
            column = 3 if quantity == "ms" else 4
            values[name] = statistics.median(
                d[label][column] for d in deltas) / 1e6
    return values


def write_spans(tracer: Tracer, requests: list[str], path: Path) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0
    doc = {"labels": tracer.labels, "requests": requests,
           "fields": ["label", "start_ns", "end_ns", "parent", "request"],
           "spans": [[i, start - base, end - base, parent, request]
                     for i, start, end, parent, request in tracer.spans]}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def summary(workload: Workload, samples: list[Sample], refs: list[float]
            ) -> dict:
    """What run.py needs to pool this process's samples with others'.
    ``times[i][k]`` is problem i's time in pass k, ``refs[k]`` the
    reference's time after pass k."""
    times: list[list[float]] = [[] for _ in workload.problems]
    failures: dict[tuple[str, str, bool], int] = {}
    for s in samples:
        times[s.problem].append(s.seconds)
        o = s.outcome
        if o.failure is not None:
            key = (workload.problems[s.problem].label, o.failure,
                   o.known_defect)
            failures[key] = failures.get(key, 0) + 1
    return {
        "problems": [p.label for p in workload.problems],
        "passes": len(refs),
        "times": times,
        "refs": refs,
        "attempted": len(samples),
        "failed": sum(failures.values()),
        "unexpected": sum(n for (_, _, known), n in failures.items()
                          if not known),
        "decided": sum(s.outcome.decided for s in samples),
        "failures": [[*key, n] for key, n in sorted(failures.items())],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(workload: Workload, seconds: float, seed: int) -> dict:
    """Half the time untraced, half traced.  Per-layer values come from the
    traced half; its throughput against the untraced half's, each scaled
    by its median reference time, gives the tracing overhead.  Spans of
    the first traced pass are written out."""
    plain, plain_refs = run_client(workload, seconds / 2, workload.call)
    tracer = Tracer()
    requests: list[str] = []
    timed_call = tracer.wrap(VERDICT, workload.call)

    def call(p: Problem):
        if tracer.recording:
            tracer.request = len(requests)
            requests.append(p.label)
        return timed_call(p)

    snaps = [tracer.snapshot()]

    def after_pass():
        tracer.recording = False
        snaps.append(tracer.snapshot())

    tracer.recording = True
    with tracer:
        traced, traced_refs = run_client(workload, seconds / 2, call,
                                         after_pass)
    overhead = 1 - (throughput(traced) * statistics.median(traced_refs)) \
        / (throughput(plain) * statistics.median(plain_refs))
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    write_spans(tracer, requests, spans_path)
    record = summary(workload, plain + traced, plain_refs + traced_refs)
    record["passes"] = len(traced_refs)
    del record["times"], record["refs"]
    record["layers"] = {name: {"value": v, "unit": PER_LAYER[name][0]}
                        for name, v in per_layer(snaps, overhead).items()}
    record["spans"] = [str(spans_path.relative_to(ROOT)), len(tracer.spans)]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(hoterm.__file__).resolve().parent
    if source != ROOT / "src" / "hoterm":
        print(f"error: imported hoterm from {source}, not from this "
              "checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT))
    try:
        workload = Workload(args.workload, args.seed, ROOT, scratch)
        if args.setup_only:
            print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}")
            return 0
        run_client(workload, 0, workload.call)        # warm-up pass
        if args.trace:
            record = measure_traced(workload, args.seconds, args.seed)
        else:
            record = summary(workload, *run_client(workload, args.seconds,
                                                   workload.call))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
