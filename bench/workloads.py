"""The benchmark's workloads: their problems, the call each problem makes into
``hoterm``, and the check of every answer against the known-answer table.

A workload is a fixed list of problems.  The client cycles through it in a
closed loop; one pass over the list is a *pass*.  Sizes are fixed here; the
seed only renames symbols, variables and rules (keeping their sort order,
which the searches depend on) and shuffles the order of the list, so every
seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import hoterm
import hoterm.cli

from answers import (FIXTURE_SHA256, KNOWN_DEFECTS, MAYBE, NONTERMINATING,
                     PFP, SDP_PAIRS, STATUS, TERMINATING)

FIXTURES = ("ackermann", "arith", "empty", "foldl", "foo", "listfns",
            "mapfun", "nested", "sqsum")

# The size ladders, fixed before any optimisation.  At this version each
# family runs from about 1 ms to the worst case of its search (up to 0.3 s),
# so the geometric mean gives the easy and the hard sizes equal weight.
ROTATING_SIZES = (8, 16, 24, 32, 64)
SWAPPED_SIZES = (4, 6, 7, 8, 10)
PREC_DEEP_SIZES = (5, 6, 7)
PREC_UNORIENTABLE_SIZES = (5, 6, 7)
PREC_WIDE_SIZE = 10          # above MAX_PRECEDENCE_SYMBOLS (8)
# loops: (fixture, max_steps) budgets that the loop search exhausts, and the
# sizes of the generated loop chain, whose loop is found after 2^(n-1) nodes.
# At this version the median of a pass falls inside the cluster of
# loop-chain n=7 (about 50 ms at nominal speed; its neighbours take 40 and
# 95 ms) and the p90 inside that of arith (about 240 ms; next, 100 ms).
LOOP_BUDGETS = (("foo", 3), ("nested", 6), ("ackermann", 1), ("arith", 1))
LOOP_CHAIN_SIZES = (5, 7, 8)

EXIT_FOR_VERDICT = {TERMINATING: 0, NONTERMINATING: 1, MAYBE: 2}


@dataclass(frozen=True)
class Problem:
    label: str            # unique within the workload, e.g. "swapped n=10"
    system: str           # key of answers.STATUS
    mode: str             # prove, redpair, disprove, pfp, sdp or find_loop
    text: str             # the .hrs text the program is given
    argv: tuple[str, ...] = ()   # corpus: the hoterm command line
    max_steps: int = 0    # find_loop: the search's depth budget


@dataclass(frozen=True)
class Outcome:
    decided: bool         # TERMINATING or NONTERMINATING
    failure: str | None   # why the call failed, if it did
    known_defect: bool    # the failure is listed in KNOWN_DEFECTS


class Workload:
    """The problems of one workload and the call each makes."""

    def __init__(self, name: str, seed: int, root: Path, scratch: Path):
        builders = {"corpus": self._corpus, "search": self._search,
                    "loops": self._loops}
        if name not in builders:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.root = root
        self.graph_out = scratch / "graph.dot"
        build = builders[name]
        rng = random.Random(seed)
        self.problems = build(rng)
        rng.shuffle(self.problems)
        self._configs = {
            "prove": hoterm.ProverConfig(),
            "redpair": hoterm.ProverConfig(
                analysis=hoterm.AnalysisConfig(techniques=("redpair",))),
        }

    # -- problem lists -----------------------------------------------------

    def _fixture(self, name: str) -> str:
        path = self.root / "fixtures" / f"{name}.hrs"
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != FIXTURE_SHA256[name]:
            raise RuntimeError(
                f"{path} differs from the fixture the known-answer table "
                "describes; check its answers by hand and update the table")
        return data.decode()

    def _corpus(self, rng: random.Random) -> list[Problem]:
        flag_sets = (((), "prove"),
                     (("--json",), "prove"),
                     (("--graph-out", str(self.graph_out)), "prove"),
                     (("--pfp",), "pfp"),
                     (("--sdp",), "sdp"),
                     (("--techniques", "redpair"), "redpair"))
        out = []
        for name in FIXTURES:
            text = self._fixture(name)
            path = f"fixtures/{name}.hrs"
            for flags, mode in flag_sets:
                label = " ".join((name,) + flags[:1])
                out.append(Problem(label, name, mode, text,
                                   ("prove", path) + flags))
            if name == "foo":
                out.append(Problem("foo --disprove", name, "disprove", text,
                                   ("prove", path, "--disprove")))
        return out

    def _search(self, rng: random.Random) -> list[Problem]:
        out = []
        for n in ROTATING_SIZES:
            out.append(Problem(f"rotating n={n}", "rotating", "prove",
                               rotating_chain(n, _prefix(rng))))
        for n in SWAPPED_SIZES:
            out.append(Problem(f"swapped n={n}", "swapped", "prove",
                               swapped_chain(n, _prefix(rng))))
        for k in PREC_DEEP_SIZES:
            out.append(Problem(f"prec-deep k={k}", "prec-deep", "redpair",
                               precedence_deep(k, _prefix(rng))))
        for k in PREC_UNORIENTABLE_SIZES:
            out.append(Problem(f"prec-unorientable k={k}",
                               "prec-unorientable", "redpair",
                               precedence_unorientable(k, _prefix(rng))))
        out.append(Problem(f"prec-deep-wide k={PREC_WIDE_SIZE}",
                           "prec-deep-wide", "redpair",
                           precedence_deep(PREC_WIDE_SIZE, _prefix(rng))))
        return out

    def _loops(self, rng: random.Random) -> list[Problem]:
        out = [Problem(f"{name} max_steps={n}", name, "find_loop",
                       self._fixture(name), max_steps=n)
               for name, n in LOOP_BUDGETS]
        for n in LOOP_CHAIN_SIZES:
            out.append(Problem(f"loop-chain n={n}", "loop-chain",
                               "find_loop", loop_chain(n, _prefix(rng)),
                               max_steps=n))
        return out

    # -- the timed call ----------------------------------------------------

    def call(self, p: Problem):
        """One verdict: the call into ``hoterm`` that the client times."""
        if p.argv:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = hoterm.cli.main(list(p.argv))
            return code, out.getvalue()
        if p.mode == "find_loop":
            return hoterm.find_loop(hoterm.parse(p.text),
                                    max_steps=p.max_steps)
        return hoterm.prove_text(p.text, self._configs[p.mode])

    # -- checking ----------------------------------------------------------

    def judge(self, p: Problem, result, error: BaseException | None
              ) -> Outcome:
        """Check one call's result (or the exception it raised)."""
        if error is not None:
            kind = type(error).__name__
            known = KNOWN_DEFECTS.get((p.system, p.mode)) == kind
            return Outcome(False, f"raised {kind}: {error}", known)
        if p.argv:
            answer, failure = self._judge_cli(p, *result)
        elif p.mode == "find_loop":
            answer = MAYBE if result is None else NONTERMINATING
            failure = _contradiction(p.system, answer)
            if failure is None and result is not None:
                failure = _replay(hoterm.parse(p.text), result.start, [
                    (s.rule, hoterm.format_position(s.position),
                     hoterm.print_term(s.result)) for s in result.trace])
        else:
            answer = result.verdict.kind
            failure = _contradiction(p.system, answer)
        return Outcome(answer in (TERMINATING, NONTERMINATING), failure, False)

    def _judge_cli(self, p: Problem, code, out: str):
        if p.mode == "pfp":
            m = re.search(r"^plain function-passing: (yes|no)$", out, re.M)
            if m is None:
                return "?", "no function-passing verdict printed"
            answer = m.group(1)
            if (answer == "yes") != PFP[p.system]:
                return answer, f"function-passing: {answer} is wrong"
            want = 0 if answer == "yes" else 2
            return answer, _exit_mismatch(code, want)
        if p.mode == "sdp":
            m = re.search(r"^static dependency pairs \((\d+)\):$", out, re.M)
            if m is None:
                return "?", "no dependency pair count printed"
            answer = m.group(1)
            if int(answer) != SDP_PAIRS[p.system]:
                return answer, f"{answer} pairs, the table says " \
                               f"{SDP_PAIRS[p.system]}"
            return answer, _exit_mismatch(code, 0)
        if "--json" in p.argv:
            try:
                doc = json.loads(out)
            except ValueError:
                return "?", "--json printed no JSON"
            answer, loop = doc["verdict"], doc["loop"]
            if loop is not None:
                loop = (loop["start"],
                        [(s["rule"],
                          hoterm.format_position(tuple(s["position"])),
                          s["result"]) for s in loop["steps"]])
        else:
            m = re.search(r"^verdict: (\w+)", out, re.M)
            if m is None:
                return "?", "no verdict printed"
            answer, loop = m.group(1), _text_loop(out)
        failure = (_contradiction(p.system, answer)
                   or _exit_mismatch(code, EXIT_FOR_VERDICT[answer]))
        if failure is None and answer == NONTERMINATING:
            failure = _replay_printed(p.text, loop)
        if failure is None and "--graph-out" in p.argv:
            dot = self.graph_out.read_text()
            nodes = len(re.findall(r"^\s*n\d+ \[label=", dot, re.M))
            if nodes != SDP_PAIRS[p.system]:
                failure = f"the DOT graph has {nodes} nodes, the table " \
                          f"says {SDP_PAIRS[p.system]} pairs"
        return answer, failure

def _contradiction(system: str, verdict: str) -> str | None:
    if verdict not in EXIT_FOR_VERDICT:
        return f"unknown verdict {verdict!r}"
    terminates = STATUS[system]
    if verdict == TERMINATING and not terminates \
            or verdict == NONTERMINATING and terminates:
        return f"{verdict} contradicts the known answer"
    return None


def _exit_mismatch(code, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _text_loop(out: str):
    m = re.search(r"^loop of length \d+ from (.*):$", out, re.M)
    if m is None:
        return None
    steps = re.findall(r"^  -> (.*)   \[(\S+), position (\S+)\]$",
                       out[m.end():], re.M)
    return m.group(1), [(rule, pos, result) for result, rule, pos in steps]


def _replay_printed(text: str, loop) -> str | None:
    """Replay a loop printed as text: parse its start term in the system's
    own signature, then follow the printed steps."""
    if loop is None:
        return "NONTERMINATING without a loop trace"
    start, steps = loop
    try:
        h = hoterm.parse(text)
        probe = hoterm.parse(
            f"{text}\nrule bench-replay-start: {start} -> {start}\n")
    except hoterm.HrsError as err:
        return f"the loop's start term does not parse: {err}"
    return _replay(h, probe.rules[-1].lhs, steps)


def _replay(h, start, steps) -> str | None:
    """Follow (rule, position, printed result) steps from ``start`` with
    ``rewrite_step`` alone; the last term must repeat an earlier one."""
    if not steps:
        return "empty loop trace"
    seen = [start]
    current = start
    for rule, pos, printed in steps:
        nxt = [s.result for s in hoterm.rewrite_step(h, current)
               if s.rule == rule
               and hoterm.format_position(s.position) == pos
               and hoterm.print_term(s.result) == printed]
        if not nxt:
            return f"loop step [{rule}, {pos}] to {printed} does not replay"
        current = nxt[0]
        seen.append(current)
    if current not in seen[:-1]:
        return "the loop trace does not return to an earlier term"
    return None


# ---------------------------------------------------------------------------
# generators: first-order systems over Peano-style constructors


def _prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(2))


def _system(comment: str, p: str, sig: list[tuple[str, str]],
            var_names: tuple[str, ...], rules: list[tuple[str, str, str]]
            ) -> str:
    lines = [f"# {comment}", "basic nat"]
    lines += [f"sig {p}{name} : {ty}" for name, ty in sig]
    lines += [f"var {p.upper()}{v} : nat" for v in var_names]
    lines += [f"rule {p}-{name}: {lhs} -> {rhs}" for name, lhs, rhs in rules]
    return "\n".join(lines) + "\n"


def _chain(n: int, p: str, lhs_args: str, rhs_args: str, comment: str
           ) -> str:
    nat2 = "nat -> nat -> nat"
    sig = [("z", "nat"), ("s", "nat -> nat")]
    sig += [(f"f{i:02d}", nat2) for i in range(n)]
    X, Y, s = f"{p.upper()}X", f"{p.upper()}Y", f"{p}s"
    rules = [(f"r{i:02d}",
              f"{p}f{i:02d}({lhs_args.format(X=X, Y=Y, s=s)})",
              f"{p}f{(i + 1) % n:02d}({rhs_args.format(X=X, Y=Y, s=s)})")
             for i in range(n)]
    return _system(comment, p, sig, ("X", "Y"), rules)


def rotating_chain(n: int, p: str) -> str:
    """f_i(s(X), Y) -> f_i+1(X, s(Y)), closed into a cycle of n symbols.
    The projection to argument 1 works, and is the first one tried."""
    return _chain(n, p, "{s}({X}), {Y}", "{X}, {s}({Y})",
                  f"rotating chain of {n} symbols")


def swapped_chain(n: int, p: str) -> str:
    """f_i(Y, s(X)) -> f_i+1(s(Y), X), closed into a cycle of n symbols.
    Only the projection to argument 2 works, and it is tried last."""
    return _chain(n, p, "{Y}, {s}({X})", "{s}({Y}), {X}",
                  f"swapped chain of {n} symbols")


def loop_chain(n: int, p: str) -> str:
    """g_i(X) -> g_i+1(X) and g_i(X) -> g_i+1(s(X)), closed into a cycle of
    n symbols.  From g_0(z) only the path of n a-steps returns to its start;
    every b-step adds an s for good, so a breadth-first search expands the
    2^(n-1) nodes of the first n-1 levels before it sees the loop."""
    sig = [("z", "nat"), ("s", "nat -> nat")]
    sig += [(f"g{i:02d}", "nat -> nat") for i in range(n)]
    X, s = f"{p.upper()}X", f"{p}s"
    rules = []
    for i in range(n):
        j = (i + 1) % n
        rules.append((f"a{i:02d}", f"{p}g{i:02d}({X})", f"{p}g{j:02d}({X})"))
        rules.append((f"b{i:02d}", f"{p}g{i:02d}({X})",
                      f"{p}g{j:02d}({s}({X}))"))
    return _system(f"loop chain of {n} symbols", p, sig, ("X",), rules)


def _g_chain(m: int, p: str) -> tuple[list, list]:
    """g_0(s(X)) -> g_1(X) -> ... -> g_m-1(s(X)) -> X: oriented by any
    precedence with g_0 > g_1 > ... > g_m-1."""
    X = f"{p.upper()}X"
    sig = [(f"g{i:02d}", "nat -> nat") for i in range(m)]
    rules = [(f"g{i:02d}", f"{p}g{i:02d}({p}s({X}))",
              f"{p}g{i + 1:02d}({X})" if i + 1 < m else X)
             for i in range(m)]
    return sig, rules


def precedence_deep(k: int, p: str) -> str:
    """k symbols: a, b, f, s and a g-chain; f(b) -> f(a) needs b > a.

    The symbols sort as a < b < f < g.. < s, so every precedence that puts
    a first is tried, and fails, before one that puts b first."""
    sig, rules = _g_chain(k - 4, p)
    sig = [("a", "nat"), ("b", "nat"), ("s", "nat -> nat"),
           ("f", "nat -> nat")] + sig
    rules.append(("f", f"{p}f({p}b)", f"{p}f({p}a)"))
    return _system(f"precedence search, {k} symbols, b > a needed", p, sig,
                   ("X",), rules)


def precedence_unorientable(k: int, p: str) -> str:
    """k symbols: f, s and a g-chain; no lexicographic path order orients
    f(X, s(Y)) -> f(s(X), Y), so every precedence is tried."""
    sig, rules = _g_chain(k - 2, p)
    sig = [("s", "nat -> nat"), ("f", "nat -> nat -> nat")] + sig
    X, Y = f"{p.upper()}X", f"{p.upper()}Y"
    rules.append(("f", f"{p}f({X}, {p}s({Y}))", f"{p}f({p}s({X}), {Y})"))
    return _system(f"precedence search, {k} symbols, unorientable", p, sig,
                   ("X", "Y"), rules)
