"""End-to-end proof pipeline and proof emission.

The pipeline parses a system, gates on the function-passing check, extracts
the static dependency pairs, builds the graph, and discharges every recursion
component.
A full discharge yields TERMINATING.  Otherwise the verdict is MAYBE with the
blocking reason, unless loop search is enabled and finds a concrete cycle, in
which case the verdict is NONTERMINATING with a replayable trace.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

from .criteria import (AnalysisConfig, ComponentFailure, ComponentProof,
                       ConfigError, analyze_component)
from .graph import (DependencyGraph, RecursionComponent, build_graph,
                    recursion_components, to_dot)
from .hrs import Hrs, parse, read_source
from .pfp import PfpReport, SafeSet, is_pfp
from .rewriting import LoopFound, find_loop
from .sdp import DependencyPair, extract_sdps, print_side
from .terms import format_position, print_term

SCHEMA_VERSION = 1

TERMINATING = "TERMINATING"
NONTERMINATING = "NONTERMINATING"
MAYBE = "MAYBE"

FINITENESS_NOTE = ("the system is finite, so its dependency graph is finite "
                   "and every infinite chain eventually stays inside one "
                   "recursion component")
NOT_ANALYZED = "not analyzed: the function-passing gate failed"


class ProverConfig(NamedTuple):
    analysis: AnalysisConfig = AnalysisConfig()
    disprove_steps: int | None = None


class Verdict(NamedTuple):
    kind: str
    reason: str | None = None
    loop: LoopFound | None = None


class ProofObject(NamedTuple):
    source_name: str
    input_digest: str
    hrs: Hrs
    pfp: PfpReport
    sdps: tuple[DependencyPair, ...]
    graph: DependencyGraph
    components: tuple[RecursionComponent, ...]
    component_proofs: dict[RecursionComponent,
                           ComponentProof | ComponentFailure]
    verdict: Verdict


def prove(path: str, config: ProverConfig = ProverConfig()) -> ProofObject:
    return prove_text(read_source(path), config, str(path))


def prove_text(text: str, config: ProverConfig = ProverConfig(),
               source_name: str = "<string>") -> ProofObject:
    digest = hashlib.sha256(text.encode()).hexdigest()
    h = parse(text)
    config.analysis.check(h)
    if config.disprove_steps is not None and config.disprove_steps < 1:
        raise ConfigError(f"disprove_steps is {config.disprove_steps}, "
                          "below 1")
    pfp = is_pfp(h)
    sdps = extract_sdps(h)
    graph = build_graph(sdps)
    components = recursion_components(graph)
    proofs: dict[RecursionComponent, ComponentProof | ComponentFailure] = {}
    if pfp.is_pfp:
        for c in components:
            proofs[c] = analyze_component(h, c, config.analysis)

    verdict = _conclude(h, pfp, proofs, config)
    return ProofObject(source_name, digest, h, pfp, sdps, graph, components,
                       proofs, verdict)


def _conclude(h: Hrs, pfp: PfpReport,
              proofs: dict[RecursionComponent,
                           ComponentProof | ComponentFailure],
              config: ProverConfig) -> Verdict:
    if not pfp.is_pfp:
        reason = "not plain function-passing"
    else:
        blocked = [c for c, p in proofs.items()
                   if isinstance(p, ComponentFailure)]
        if not blocked:
            return Verdict(TERMINATING)
        labels = ", ".join(_label([i + 1 for i in c.indices])
                           for c in blocked)
        reason = f"undischarged recursion component(s): {labels}"
    if config.disprove_steps is not None:
        non_pattern = h.non_pattern
        if non_pattern is not None:
            reason += (f"; loop search skipped: rule {non_pattern.name} is "
                       "not a pattern")
            return Verdict(MAYBE, reason)
        found = find_loop(h, max_steps=config.disprove_steps)
        if found is not None:
            return Verdict(NONTERMINATING, loop=found)
        reason += "; loop search found nothing"
    return Verdict(MAYBE, reason)


# ---------------------------------------------------------------------------
# emission
#
# ``_document`` walks the proof once; the JSON is that document, and the
# text renders from it plus what only the text shows: the system summary
# and the safe sets.


def _pfp_json(report: PfpReport) -> dict:
    return {
        "is_pfp": report.is_pfp,
        "violations": [{
            "rule": v.rule,
            "subterm": print_term(v.subterm),
            "reason": v.reason,
        } for v in report.violations],
    }


def _pairs_json(sdps: tuple[DependencyPair, ...]) -> list[dict]:
    return [{
        "index": i + 1,
        "lhs": print_side(p.lhs),
        "rhs": print_side(p.rhs),
        "origin_rule": p.origin_rule,
        "extra_vars": list(p.extra_vars),
    } for i, p in enumerate(sdps)]


def _component_json(c: RecursionComponent,
                    result: ComponentProof | ComponentFailure | None) -> dict:
    entry: dict = {"component": [i + 1 for i in c.indices],
                   "discharged": isinstance(result, ComponentProof)}
    if isinstance(result, ComponentProof):
        entry["steps"] = [{
            "technique": s.technique,
            "witness": s.witness,
            "strict": [str(p) for p in s.removed],
            "remaining": [str(p) for p in s.remaining],
        } for s in result.steps]
    else:
        entry["reasons"] = (list(result.reasons) if result is not None
                            else [NOT_ANALYZED])
    return entry


def _document(proof: ProofObject) -> dict:
    loop = proof.verdict.loop
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"source": proof.source_name,
                  "sha256": proof.input_digest},
        "pfp": _pfp_json(proof.pfp),
        "sdp_count": len(proof.sdps),
        "sdps": _pairs_json(proof.sdps),
        "graph": {"arcs": [[a + 1, b + 1]
                           for a, b in sorted(proof.graph.arcs)]},
        "component_count": len(proof.components),
        "components": [{"pairs": [i + 1 for i in c.indices]}
                       for c in proof.components],
        "component_proofs": [
            _component_json(c, proof.component_proofs.get(c))
            for c in proof.components],
        "finiteness": FINITENESS_NOTE,
        "verdict": proof.verdict.kind,
        "reason": proof.verdict.reason,
        "loop": None if loop is None else {
            "start": print_term(loop.start),
            "steps": [{
                "rule": s.rule,
                "position": list(s.position),
                "result": print_term(s.result),
            } for s in loop.trace],
        },
    }


def _pfp_section(pfp: dict, safe_sets: tuple[SafeSet, ...]) -> list[str]:
    out = ["plain function-passing: " + ("yes" if pfp["is_pfp"] else "no")]
    out.extend(f"  rule {v['rule']}: subterm {v['subterm']}: {v['reason']}"
               for v in pfp["violations"])
    for safe in safe_sets:
        shown = ", ".join(print_term(u) for u in safe.safe)
        out.append(f"  safe({safe.rule.name}) = {{{shown}}}")
    return out


def _pairs_section(pairs: list[dict]) -> list[str]:
    out = [f"static dependency pairs ({len(pairs)}):"]
    for p in pairs:
        extras = (f"   [extra variables: {', '.join(p['extra_vars'])}]"
                  if p["extra_vars"] else "")
        out.append(f"  {p['index']}. {p['lhs']} -> {p['rhs']}   "
                   f"[from {p['origin_rule']}]{extras}")
    return out


def _label(indices: list[int]) -> str:
    return "{" + ", ".join(map(str, indices)) + "}"


def _lines(out: list[str]) -> str:
    return "\n".join(out) + "\n"


def emit_pfp(h: Hrs, report: PfpReport) -> str:
    """The function-passing section with the safe sets of every rule, as
    printed by ``hoterm prove --pfp`` whatever the outcome of the check."""
    return _lines(_pfp_section(_pfp_json(report), h.safe_sets))


def emit_sdps(sdps: tuple[DependencyPair, ...]) -> str:
    """The dependency pair section, as printed by ``hoterm prove --sdp``."""
    return _lines(_pairs_section(_pairs_json(sdps)))


def emit_text(proof: ProofObject) -> str:
    h = proof.hrs
    doc = _document(proof)
    pfp = doc["pfp"]
    arcs = doc["graph"]["arcs"]
    out = [f"input: {doc['input']['source']}",
           f"sha256: {doc['input']['sha256']}",
           "",
           f"system: {len(h.rules)} rule(s); "
           f"defined = {{{', '.join(sorted(h.defined))}}}; "
           f"constructors = {{{', '.join(sorted(h.constructors))}}}",
           "",
           *_pfp_section(pfp, h.safe_sets if pfp["is_pfp"] else ()),
           "",
           *_pairs_section(doc["sdps"]),
           "",
           f"static dependency graph: {len(arcs)} arc(s): "
           + ", ".join(f"{a}->{b}" for a, b in arcs),
           "",
           f"recursion components ({doc['component_count']}):"]
    out.extend(f"  {_label(c['pairs'])}" for c in doc["components"])
    for entry in doc["component_proofs"]:
        out += ["", f"component {_label(entry['component'])}:"]
        if entry["discharged"]:
            for step in entry["steps"]:
                out += [f"  {step['technique']}: {step['witness']}",
                        f"    strict: {', '.join(step['strict'])}",
                        f"    remaining pairs: "
                        f"{len(step['remaining']) or 'none'}"]
            out.append("  discharged")
        else:
            out.extend(f"  {reason}" for reason in entry["reasons"])
            if pfp["is_pfp"]:
                out.append("  NOT discharged")
    out += ["", f"note: {doc['finiteness']}", ""]
    loop = doc["loop"]
    if loop is not None:
        out.append(f"loop of length {len(loop['steps'])} from "
                   f"{loop['start']}:")
        out.extend(f"  -> {s['result']}   [{s['rule']}, position "
                   f"{format_position(s['position'])}]"
                   for s in loop["steps"])
        out.append("")
    reason = f" ({doc['reason']})" if doc["reason"] else ""
    out.append(f"verdict: {doc['verdict']}{reason}")
    return _lines(out)


def emit_json(proof: ProofObject) -> str:
    return json.dumps(_document(proof), indent=2) + "\n"


def emit_dot(proof: ProofObject) -> str:
    return to_dot(proof.graph)
