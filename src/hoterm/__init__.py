"""Termination prover for higher-order rewrite systems.

Systems are simply-typed rewrite rules over terms kept in eta-long
beta-normal form.  The prover checks that higher-order variables are passed
plainly, extracts static dependency pairs, splits their graph into recursion
components, and discharges each component with the subterm criterion or a
path order; a failed proof can fall back to a concrete loop search.

The package root exports the names below; every other name is imported from
its own module.
"""

from .criteria import AnalysisConfig, ConfigError
from .hrs import HrsError, parse
from .proof import ProverConfig, emit_text, prove, prove_text
from .rewriting import find_loop, rewrite_step
from .terms import format_position, print_term

__all__ = ["AnalysisConfig", "ConfigError", "HrsError", "ProverConfig",
           "emit_text", "find_loop", "format_position", "parse",
           "print_term", "prove", "prove_text", "rewrite_step"]
__version__ = "0.1.0"
