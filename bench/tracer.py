"""Per-layer tracing from outside the program.

``Tracer`` rebinds each traced public function of ``hoterm`` in every
namespace where a caller looks it up (the defining module, the modules that
imported it by name, the package), so spans are recorded without touching
``src/``.  ``restore`` puts every original binding back.

A span is (label, start ns, end ns, parent span, request).  Only calls made
inside a timed verdict count.  A function re-entered while a span of it is
open gets no inner span; its inner calls are only counted.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


def _found(result) -> bool:
    return result is not None


def _named(name: str) -> Callable[[object], bool]:
    return lambda result: type(result).__name__ == name


@dataclass(frozen=True)
class Target:
    label: str                  # "<module>.<function>", as metrics name it
    module: str                 # the module that defines it
    attr: str                   # "name" or "Class.method"
    hit: Callable[[object], bool] | None = None   # a useful outcome?
    amount: Callable[[object], int] | None = None  # work items returned


TARGETS = (
    Target("hrs.parse", "hoterm.hrs", "parse"),
    Target("pfp.is_pfp", "hoterm.pfp", "is_pfp"),
    Target("sdp.extract_sdps", "hoterm.sdp", "extract_sdps", amount=len),
    Target("normalize.normalize", "hoterm.normalize", "normalize"),
    Target("normalize.apply_subst", "hoterm.normalize", "apply_subst"),
    Target("graph.build_graph", "hoterm.graph", "build_graph"),
    Target("graph.recursion_components", "hoterm.graph",
           "recursion_components"),
    Target("criteria.analyze_component", "hoterm.criteria",
           "analyze_component", hit=_named("ComponentProof")),
    Target("criteria.search_pi", "hoterm.criteria", "search_pi", hit=_found),
    Target("criteria.check_subterm_criterion", "hoterm.criteria",
           "check_subterm_criterion", hit=_named("CriterionVerdict")),
    Target("criteria.search_precedence", "hoterm.criteria",
           "search_precedence", hit=_found),
    Target("criteria.check_reduction_pair", "hoterm.criteria",
           "check_reduction_pair", hit=_named("OrientationVerdict")),
    Target("criteria.lpo_compare", "hoterm.criteria",
           "LexPathOrder.compare"),
    Target("terms.print_term", "hoterm.terms", "print_term"),
    Target("terms.subterms", "hoterm.terms", "subterms"),
    Target("rewriting.find_loop", "hoterm.rewriting", "find_loop",
           hit=_found),
    Target("rewriting.bounded_search", "hoterm.rewriting", "bounded_search",
           hit=_named("LoopFound")),
    Target("rewriting.rewrite_step", "hoterm.rewriting", "rewrite_step"),
    Target("rewriting.match", "hoterm.rewriting", "match", hit=_found),
    Target("proof.prove", "hoterm.proof", "prove"),
    Target("proof.prove", "hoterm.proof", "prove_text"),
    Target("proof.emit_text", "hoterm.proof", "emit_text"),
    Target("proof.emit_json", "hoterm.proof", "emit_json"),
    Target("proof.emit_dot", "hoterm.proof", "emit_dot"),
    Target("cli.main", "hoterm.cli", "main"),
)

VERDICT = "bench.verdict"       # the root span of each timed call


class Tracer:
    """Counts, times and (while ``recording``) keeps spans of the targets."""

    def __init__(self):
        self.labels = sorted({t.label for t in TARGETS} | {VERDICT})
        n = len(self.labels)
        self.calls = [0] * n
        self.hits = [0] * n
        self.amount = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.spans: list = []
        self.recording = False
        self.request = -1           # id of the verdict being traced
        self._active = [0] * n
        self._stack: list[list[int]] = []   # [child ns, span index]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hoterm" or name.startswith("hoterm.")]
        for t in TARGETS:
            owner = importlib.import_module(t.module)
            cls_name, _, meth = t.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self.wrap(t.label, original, t.hit,
                                                  t.amount))
                continue
            original = getattr(owner, t.attr)
            wrapper = self.wrap(t.label, original, t.hit, t.amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def wrap(self, label: str, fn, hit=None, amount=None):
        """``fn`` with its calls counted and its outermost calls spanned."""
        i = self.labels.index(label)
        root = label == VERDICT
        calls, hits, amounts = self.calls, self.hits, self.amount
        total_ns, self_ns = self.total_ns, self.self_ns
        active, stack, spans = self._active, self._stack, self.spans

        def traced(*args, **kwargs):
            if not stack and not root:
                # outside a timed verdict: the client checking an answer
                return fn(*args, **kwargs)
            calls[i] += 1
            if active[i]:
                result = fn(*args, **kwargs)
            else:
                span = -1
                if self.recording:
                    span = len(spans)
                    spans.append(None)
                parent = stack[-1][1] if stack else -1
                frame = [0, span]
                stack.append(frame)
                active[i] += 1
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    active[i] -= 1
                    stack.pop()
                    duration = end - start
                    total_ns[i] += duration
                    self_ns[i] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    if span >= 0:
                        spans[span] = (i, start, end, parent, self.request)
            if hit is not None and hit(result):
                hits[i] += 1
            if amount is not None:
                amounts[i] += amount(result)
            return result

        return traced

    def snapshot(self) -> dict[str, tuple[int, int, int, int, int]]:
        """label -> (calls, hits, amount, total ns, self ns) so far."""
        return {label: (self.calls[i], self.hits[i], self.amount[i],
                        self.total_ns[i], self.self_ns[i])
                for i, label in enumerate(self.labels)}
