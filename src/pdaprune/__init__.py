"""pdaprune: detect and remove transitions a pushdown automaton never needs.

A transition is useless when it occurs on no run from the initial
configuration to a final state.  ``analyze`` splits every transition into
unreachable / dead / useful by summarizing all reachable stacks in a small
finite automaton and then propagating acceptance backwards over it;
``prune`` removes the useless ones without changing the accepted language.
The ``oracle`` module holds the two independent verifiers behind the
``verify`` CLI command: a bounded explicit search and an exact grammar
check.  Reference searches used only as test oracles are not part of the
package; they live in the test suite.
"""

__version__ = "0.1.0"

from .augment import augment
from .backward import BackwardResult, run_backward
from .builders import cfg_to_pda, random_pda
from .dot import nfa_to_dot
from .forward import EpsClosure, ForwardResult, compute_s, establish_path, run_forward
from .model import (
    EPSILON,
    M0,
    Configuration,
    Grammar,
    NfaShapeError,
    NfaSummary,
    Pda,
    PdaTransition,
    StackString,
    Symbol,
    make_grammar,
    validate,
)
from .oracle import (
    bounded_useful,
    exact_unreachable,
    exact_useless,
    grammar_useless,
    normalize,
    pda_to_grammar,
)
from .pruner import (
    AnalysisReport,
    AnalysisStats,
    InvalidPdaError,
    analyze,
    prune,
    run_pipeline,
)
from .textio import PdaFormatError, parse_grammar, parse_pda, print_pda

__all__ = [
    "AnalysisReport",
    "AnalysisStats",
    "BackwardResult",
    "Configuration",
    "EPSILON",
    "EpsClosure",
    "ForwardResult",
    "Grammar",
    "InvalidPdaError",
    "M0",
    "NfaShapeError",
    "NfaSummary",
    "Pda",
    "PdaFormatError",
    "PdaTransition",
    "StackString",
    "Symbol",
    "analyze",
    "augment",
    "bounded_useful",
    "cfg_to_pda",
    "compute_s",
    "establish_path",
    "exact_unreachable",
    "exact_useless",
    "grammar_useless",
    "make_grammar",
    "nfa_to_dot",
    "normalize",
    "parse_grammar",
    "parse_pda",
    "pda_to_grammar",
    "print_pda",
    "prune",
    "random_pda",
    "run_backward",
    "run_forward",
    "run_pipeline",
    "validate",
]
