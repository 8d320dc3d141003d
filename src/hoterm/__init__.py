"""Termination prover for higher-order rewrite systems.

Systems are simply-typed rewrite rules over terms kept in eta-long
beta-normal form.  The prover checks that higher-order variables are passed
plainly, extracts marked dependency pairs, splits their graph into recursion
components, and discharges each component with the subterm criterion or a
path order; a failed proof can fall back to a concrete loop search.
"""

from .criteria import (AnalysisConfig, ComponentFailure, ComponentProof,
                       Comparison, ConfigError, CriterionFailure,
                       CriterionVerdict, LexPathOrder, PiAssignment,
                       analyze_component, check_reduction_pair,
                       check_subterm_criterion, search_pi, search_precedence)
from .graph import (DependencyGraph, RecursionComponent, build_graph,
                    recursion_components, strongly_connected, to_dot)
from .hrs import Hrs, HrsError, Rule, load, parse, print_hrs
from .normalize import apply_subst, eta_expand
from .pfp import PfpReport, PfpViolation, SafeSet, is_pfp, safe_subterms
from .proof import (MAYBE, NONTERMINATING, TERMINATING, ProofObject,
                    ProverConfig, Verdict, emit, emit_dot, emit_json,
                    emit_text, prove, prove_text)
from .rewriting import (DepthExhausted, LoopFound, NormalForm,
                        NonPatternError, RewriteStep, bounded_search,
                        find_loop, match, rewrite_step)
from .sdp import DependencyPair, extract_sdps, mark, unmark_name
from .terms import (Abs, App, Arrow, Base, Bound, Const, Free, Position,
                    PositionError, SimpleType, Term, TermTypeError, arrow,
                    format_position, free_names, print_term, subterm_at,
                    subterms)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
