"""Known-answer table for the benchmark.

Everything here was worked out by hand from the rules, not by running the
prover.  ``STATUS`` is the true termination status of every system the
benchmark feeds to the prover; a verdict that contradicts it is a failure.
MAYBE is allowed for any system.  ``PFP`` and ``SDP_PAIRS`` are what the
``--pfp`` and ``--sdp`` stages must report for each fixture.

``PREDICTED`` is of another kind: what this version of the prover is
expected to answer for each call, given the method's known limits (the
function-passing gate, lexicographic path orders, the precedence cap, the
loop search's seeds).  A run never fails on it; the self-check uses it to
predict ``failed_frac`` and ``decided_frac`` exactly.  A change that makes
the prover stronger updates it.

``KNOWN_DEFECTS`` lists the calls that crash today.  They count as failures
in ``failed_frac``, but they do not make a run incorrect, because no wrong
answer is printed.  Any other failure does.
"""

TERMINATING = "TERMINATING"
NONTERMINATING = "NONTERMINATING"
MAYBE = "MAYBE"
RAISES = "raises"

# system -> does it terminate?  Fixtures by file stem, generated families
# (see workloads.py) by name.
STATUS = {
    # ack(m, n) decreases in the lexicographic order on (m, n).
    "ackermann": True,
    # add recurses on its first argument, mul on its first, calling add.
    "arith": True,
    # no rules at all.
    "empty": True,
    # foldl consumes its list; F is only ever applied, never rewritten into.
    "foldl": True,
    # foo(bar(\x. foo(x))) rewrites to itself in one step.
    "foo": False,
    # append and rev each consume their first list argument.
    "listfns": True,
    # mapfun consumes its function list.
    "mapfun": True,
    # the first component of the pair loses an s on every f-step.
    "nested": True,
    # add, mul and foldl recurse structurally; sqsum calls foldl once.
    "sqsum": True,
    # f_i(s(X), Y) -> f_i+1(X, s(Y)) around a cycle: the first argument
    # loses an s on every step.
    "rotating": True,
    # f_i(Y, s(X)) -> f_i+1(s(Y), X) around a cycle: the second argument
    # loses an s on every step.
    "swapped": True,
    # f(b) -> f(a) plus a chain g_i(s(X)) -> g_i+1(X): every step turns a b
    # into an a or removes an s.  "wide" is the same shape, more symbols.
    "prec-deep": True,
    "prec-deep-wide": True,
    # f(X, s(Y)) -> f(s(X), Y) plus the same chain: the second argument of
    # f loses an s on every f-step.
    "prec-unorientable": True,
    # g_i(X) -> g_i+1(X) around a cycle: g_0(X) rewrites back to itself
    # in n steps.
    "loop-chain": False,
}

# fixture -> is the system plain function-passing?  mapfun takes its
# functions out of a constructor, and foo applies F to bar(\x. F(x)), which
# is no safe subterm of its left-hand side.
PFP = {
    "ackermann": True, "arith": True, "empty": True, "foldl": True,
    "foo": False, "listfns": True, "mapfun": False, "nested": True,
    "sqsum": True,
}

# fixture -> number of static dependency pairs: one per defined call on a
# right-hand side that no safe subterm covers, after deduplication.
SDP_PAIRS = {
    "ackermann": 3,  # ack-x: 1; ack-y: the outer and the inner ack call
    "arith": 3,      # add-s: 1; mul-s: add and mul
    "empty": 0,
    "foldl": 1,      # foldl-cons: the recursive foldl call
    "foo": 0,        # the right-hand side calls no defined symbol
    "listfns": 3,    # append-cons: 1; rev-cons: append and rev
    "mapfun": 1,     # mapfun-cons: the recursive mapfun call
    "nested": 1,     # f-step: the recursive f call
    "sqsum": 7,      # add-s 1, mul-s 2, foldl-cons 1, and sqsum-def 3:
                     # foldl, and add and mul under the step's binders
}

# sha256 of each fixture as the table describes it.  A changed fixture must
# be checked by hand again before the benchmark runs on it.
FIXTURE_SHA256 = {
    "ackermann":
        "a14dbc75fad81cf63b6d710c139e1d7a8678c5477323f8bef679c9574d0ded3f",
    "arith":
        "0591151c78c20c62d8f1a078c294399f358f3ec1cefd5f028454a71fedd02420",
    "empty":
        "c5020bd7df5b5532976e7c17b46a8903ac80815ccefbc97cc494200c2bbfbf2d",
    "foldl":
        "dac1a66982ea9c7b623ab4bfb93150599a9ffdd6a2b6d05ed906899d603f86aa",
    "foo":
        "cb2d473b2a274beeb969307c05d1270b39e3b3cc2d23a8bfc515bdffccfda5be",
    "listfns":
        "f75b24da731533af6ea84bdfb693bf5e0f42f870e31a5891aff726edf4d5f289",
    "mapfun":
        "507f3745a40ab3f98826537c874d187ae41d0bf83ecf6eca298794b7e7bbd369",
    "nested":
        "76d358c8c9794323252a47273764212a4f112a9ca849005e6f6778485910344f",
    "sqsum":
        "0ef5416be876ab7c10c5d8494995c2cd0af1be93ac6ca06122eeeafafced453b",
}

# (system, mode) -> the answer this version is predicted to give.  Modes:
# "prove" is the default prove call (corpus: plain, --json, --graph-out;
# search: the subterm-then-redpair default), "redpair" is a prove call with
# the reduction pair alone, and "disprove" is --disprove.  --pfp and --sdp
# calls are predicted by PFP and SDP_PAIRS.
PREDICTED = {
    # mapfun and foo fail the function-passing gate; the rest are proved,
    # nested with the projection 1.1 and ackermann in two rounds.
    ("ackermann", "prove"): TERMINATING,
    ("arith", "prove"): TERMINATING,
    ("empty", "prove"): TERMINATING,
    ("foldl", "prove"): TERMINATING,
    ("foo", "prove"): MAYBE,
    ("listfns", "prove"): TERMINATING,
    ("mapfun", "prove"): MAYBE,
    ("nested", "prove"): TERMINATING,
    ("sqsum", "prove"): TERMINATING,
    # Path orders with call-graph precedences prove the first-order
    # fixtures; redpair reads .head off lambda subterms and crashes on
    # foldl and sqsum.
    ("ackermann", "redpair"): TERMINATING,
    ("arith", "redpair"): TERMINATING,
    ("empty", "redpair"): TERMINATING,
    ("foldl", "redpair"): RAISES,
    ("foo", "redpair"): MAYBE,
    ("listfns", "redpair"): TERMINATING,
    ("mapfun", "redpair"): MAYBE,
    ("nested", "redpair"): TERMINATING,
    ("sqsum", "redpair"): RAISES,
    # foo loops in one step from its first seed.
    ("foo", "disprove"): NONTERMINATING,
    # The subterm criterion finds the projections of both chains.
    ("rotating", "prove"): TERMINATING,
    ("swapped", "prove"): TERMINATING,
    # The precedence b > a is found after every precedence with a on top
    # has failed, as long as the system has at most MAX_PRECEDENCE_SYMBOLS
    # symbols; with more, the search gives up after one guess.
    ("prec-deep", "redpair"): TERMINATING,
    ("prec-deep-wide", "redpair"): MAYBE,
    # No lexicographic path order orients f(X, s(Y)) -> f(s(X), Y).
    ("prec-unorientable", "redpair"): MAYBE,
}

# find_loop(parse(text), max_steps=N): foo loops in one step from its first
# seed.  nested, ackermann and arith terminate, so every seed's search ends
# in a normal form or at the budget.  The loop chain's first seed, g_0(z),
# returns to itself after n steps, within the budget of n.
PREDICTED.update({
    ("foo", "find_loop"): NONTERMINATING,
    ("nested", "find_loop"): MAYBE,
    ("ackermann", "find_loop"): MAYBE,
    ("arith", "find_loop"): MAYBE,
    ("loop-chain", "find_loop"): NONTERMINATING,
})

# (system, mode) -> exception type the call raises today.
KNOWN_DEFECTS = {
    ("foldl", "redpair"): "AttributeError",
    ("sqsum", "redpair"): "AttributeError",
}
