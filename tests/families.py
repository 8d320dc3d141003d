"""Generated families of systems, as source texts, and a count of how the
work of a function grows with a family's size.

``bench/workloads.py`` keeps its own copies of the rotating, swapped and
precedence families, with the names its problems use.
"""

import sys


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


def _s(k: int, t: str) -> str:
    return "s(" * k + t + ")" * k


def precedence_deep(k: int, digits: int = 4) -> str:
    """The chain g_0(s(X)) -> g_1(X) -> ... -> X beside f(b) -> f(a), k
    symbols in all: b > a is needed, which the call-graph guess gets wrong,
    so the precedence walk runs."""
    sig, rules = _g_chain(k - 4, digits)
    sig += [("a", "nat"), ("b", "nat"), ("f", "nat -> nat")]
    rules.append(("f", "f(b)", "f(a)"))
    return _system(sig, ("X",), rules)


def precedence_unorientable(k: int) -> str:
    """The chain beside f(X, s(Y)) -> f(s(X), Y), k symbols in all, which
    no path order orients."""
    sig, rules = _g_chain(k - 2, 4)
    sig.append(("f", "nat -> nat -> nat"))
    rules.append(("f", "f(X, s(Y))", "f(s(X), Y)"))
    return _system(sig, ("X", "Y"), rules)


def precedence_unsorted(k: int) -> str:
    """``precedence_deep(k)`` with the chain's names unpadded: past g10
    they sort out of chain order (g10 < g100 < g11), so each prefix tries,
    and drops, every symbol that sorts before the next link."""
    return precedence_deep(k, digits=1)


def rotating_chain(n: int) -> str:
    """f_i(s(X), Y) -> f_i+1(X, s(Y)), closed into a cycle of n symbols:
    no path order orients it; the projection to argument 1 works, and it is
    tried first."""
    sig = [(f"f{i:04d}", "nat -> nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f{i:04d}(s(X), Y)",
              f"f{(i + 1) % n:04d}(X, s(Y))") for i in range(n)]
    return _system(sig, ("X", "Y"), rules)


def swapped_chain(n: int) -> str:
    """f_i(Y, s(X)) -> f_i+1(s(Y), X), closed into a cycle of n symbols:
    only the projection to argument 2 works, and it is tried last."""
    sig = [(f"f{i:04d}", "nat -> nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f{i:04d}(Y, s(X))",
              f"f{(i + 1) % n:04d}(s(Y), X)") for i in range(n)]
    return _system(sig, ("X", "Y"), rules)


def cycle_behind(m: int) -> str:
    """m rules u_i(s(X)) -> X, whose symbols sort first, beside the cycle
    x(s(X)) -> y(s(X)) -> z(s(X)) -> x(s(X)), which no path order orients."""
    lines = ["basic nat", "sig s : nat -> nat", "var X : nat"]
    lines += [f"sig {f} : nat -> nat"
              for f in [f"u{i}" for i in range(m)] + ["x", "y", "z"]]
    lines += [f"rule u{i}: u{i}(s(X)) -> X" for i in range(m)]
    lines += [f"rule {f}{g}: {f}(s(X)) -> {g}(s(X))"
              for f, g in ("xy", "yz", "zx")]
    return "\n".join(lines) + "\n"


def deep_sides(n: int) -> str:
    """f(s^n(X), s^n(Y)) -> g(s^(n-1)(Y), f(X, s^n(b))),
    g(s^n(X), Y) -> h(f(s^(n-1)(a), Y)) and h(b) -> a: comparing the sides
    by plain recursion, with no memo, takes time exponential in n."""
    sig = [("a", "nat"), ("b", "nat"), ("f", "nat -> nat -> nat"),
           ("g", "nat -> nat -> nat"), ("h", "nat -> nat")]
    rules = [("f", f"f({_s(n, 'X')}, {_s(n, 'Y')})",
              f"g({_s(n - 1, 'Y')}, f(X, {_s(n, 'b')}))"),
             ("g", f"g({_s(n, 'X')}, Y)", f"h(f({_s(n - 1, 'a')}, Y))"),
             ("h", "h(b)", "a")]
    return _system(sig, ("X", "Y"), rules)


def independent(n: int) -> str:
    """f_i(s(X)) -> f_i(X) for n symbols: n one-pair components."""
    sig = [(f"f{i:04d}", "nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f{i:04d}(s(X))", f"f{i:04d}(X)")
             for i in range(n)]
    return _system(sig, ("X",), rules)


def wide(n: int) -> str:
    """f(c_i(X)) -> f(X) for n constructors c_i: one component of n pairs,
    each pair joined to every other."""
    sig = [("f", "nat -> nat")]
    sig += [(f"c{i:04d}", "nat -> nat") for i in range(n)]
    rules = [(f"r{i:04d}", f"f(c{i:04d}(X))", "f(X)") for i in range(n)]
    return _system(sig, ("X",), rules)


def grow() -> str:
    """f(X) -> g(s(X)) and g(s(X)) -> f(s(s(X))): f(X) rewrites to
    f(s(s(X))), so it does not terminate, but no term rewrites back to
    itself, the only loop the loop search finds."""
    return _system([("f", "nat -> nat"), ("g", "nat -> nat")], ("X",),
                   [("f", "f(X)", "g(s(X))"), ("g", "g(s(X))", "f(s(s(X)))")])


def binder_depth_system(d: int) -> str:
    """g_i(s(X), Y) -> k(\\x1 ... xd. g_j(X, h(x1, ..., xd))), j = i + 1
    mod 4: each recursive call sits under d binders, so each of the 4 pairs
    has d extra variables."""
    fun = " -> ".join(["nat"] * (d + 1))
    xs = [f"x{i}" for i in range(1, d + 1)]
    lines = ["basic nat", "sig s : nat -> nat", f"sig h : {fun}",
             f"sig k : ({fun}) -> nat", "var X : nat", "var Y : nat"]
    lines += [f"sig g{i} : nat -> nat -> nat" for i in range(4)]
    lines += [f"rule r{i}: g{i}(s(X), Y) -> k(\\{' '.join(xs)}. "
              f"g{(i + 1) % 4}(X, h({', '.join(xs)})))" for i in range(4)]
    return "\n".join(lines) + "\n"


def loop_chain(n: int) -> str:
    """g_i(X) -> g_i+1(X) and g_i(X) -> g_i+1(s(X)), closed into a cycle of
    n symbols: only the path of n a-steps from g_0(z) returns to it, behind
    2^(n-1) paths but about n^2/2 distinct terms."""
    lines = ["basic o", "sig z : o", "sig s : o -> o"]
    lines += [f"sig g{i:02d} : o -> o" for i in range(n)]
    lines.append("var X : o")
    for i in range(n):
        j = (i + 1) % n
        lines.append(f"rule a{i:02d}: g{i:02d}(X) -> g{j:02d}(X)")
        lines.append(f"rule b{i:02d}: g{i:02d}(X) -> g{j:02d}(s(X))")
    return "\n".join(lines) + "\n"


def binder_nesting(n: int) -> str:
    """``r`` nests n one-binder abstractions and ``q`` feeds ``r`` its own
    left side, so rewriting builds the same nameless chain under different
    binder hints."""
    body = "X"
    for i in reversed(range(n)):
        body = f"g(\\y{i}. {body})"
    return ("basic nat\nsig f : nat -> nat\nsig g : (nat -> nat) -> nat\n"
            f"var X : nat\nrule r: f(g(\\z. X)) -> {body}\n"
            "rule q: f(X) -> f(g(\\z. X))\n")


def deep_rules(n: int) -> str:
    """f(s^n(X)) -> f(s^(n-1)(X)), g(s^n(X), Y) -> g(s^(n-1)(X), s(Y))
    and g(0, Y) -> f(Y)."""
    return ("basic nat\nsig 0 : nat\nsig s : nat -> nat\n"
            "sig f : nat -> nat\nsig g : nat -> nat -> nat\n"
            "var X : nat\nvar Y : nat\n"
            f"rule f: f({_s(n, 'X')}) -> f({_s(n - 1, 'X')})\n"
            f"rule g: g({_s(n, 'X')}, Y) -> g({_s(n - 1, 'X')}, s(Y))\n"
            "rule h: g(0, Y) -> f(Y)\n")


# ---------------------------------------------------------------------------
# growth by count


def line_events(run, functions) -> int:
    """The line events ``sys.settrace`` reports while ``run()`` runs inside
    ``functions`` and the comprehensions and generator expressions they
    define.  A count, unlike a time, is the same on every run."""
    codes, todo = set(), [f.__code__ for f in functions]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def call(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def doubling(run, n: int, functions) -> float:
    """How many times the line events of ``functions`` grow from
    ``run(n)`` to ``run(2 * n)``: about 2 for work linear in n, about 4
    for quadratic work."""
    return (line_events(lambda: run(2 * n), functions)
            / line_events(lambda: run(n), functions))
