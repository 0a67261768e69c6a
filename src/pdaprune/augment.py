"""Preprocessing: bottom marker, drain state and unique final state.

``augment`` turns an arbitrary PDA into P0, which accepts exactly when the
unique final state ``FINAL`` is reached with an empty stack, after the
bottom marker ``BOTTOM`` has been drained in state ``DRAIN``.  The initial
stack of P0 is the single bottom marker; the forward analysis seeds its
NFA accordingly.  Every name ``augment`` adds contains ``#``, so a
transition of P0 is synthetic exactly when its id contains ``#``.
"""

from .model import EPSILON, Pda, PdaTransition

BOTTOM = "#bot"
DRAIN = "#qe"
FINAL = "#qf"


def augment(pda: Pda) -> Pda:
    """Build P0: marker + drain state + unique final state and drain moves.

    ``pda`` must validate, so that none of its names contains ``#``.  Its
    states, symbols and transitions come first in P0 and are unchanged.
    """
    moves = (
        [(q, EPSILON, DRAIN) for q in pda.finals_ordered()]
        + [(DRAIN, (a,), DRAIN) for a in pda.stack_alphabet]
        + [(DRAIN, (BOTTOM,), FINAL)]
    )
    synthetic = tuple(
        PdaTransition(f"#aug{i}", source, None, pop, EPSILON, target)
        for i, (source, pop, target) in enumerate(moves)
    )
    return Pda(
        states=pda.states + (DRAIN, FINAL),
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet + (BOTTOM,),
        transitions=pda.transitions + synthetic,
        initial=pda.initial,
        finals=frozenset({FINAL}),
    )
