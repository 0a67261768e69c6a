"""Preprocessing: bottom marker, drain state and unique final state.

``augment`` turns an arbitrary PDA into one that accepts exactly when the
unique final state is reached with an empty stack, after the bottom marker
has been drained.  The initial stack of the augmented PDA is the single
bottom marker; the forward analysis seeds its NFA accordingly.
"""

from dataclasses import dataclass

from .model import EPSILON, Pda, PdaTransition, StackString, Symbol

SYNTHETIC_ID_PREFIX = "__aug"


def _fresh(candidate: str, taken: set[str]) -> str:
    if candidate not in taken:
        return candidate
    i = 1
    while f"{candidate}{i}" in taken:
        i += 1
    return f"{candidate}{i}"


@dataclass(frozen=True)
class AugmentedPda:
    p0: Pda
    bottom_marker: Symbol
    drain_state: str
    final_state: str
    synthetic_ids: frozenset[str]


def augment(pda: Pda) -> AugmentedPda:
    """Build P0: marker + drain state + unique final state and drain moves."""
    bottom = _fresh("__bot", set(pda.stack_alphabet))
    taken_states = set(pda.states)
    drain = _fresh("__qe", taken_states)
    final = _fresh("__qf", taken_states | {drain})

    # Only an input id with the synthetic prefix can clash with a synthetic
    # id, so no other id needs to be collected.
    taken_ids = {t.id for t in pda.transitions if t.id.startswith(SYNTHETIC_ID_PREFIX)}
    synthetic: list[PdaTransition] = []

    def synth(source: str, pop: StackString, target: str) -> None:
        tid = _fresh(f"{SYNTHETIC_ID_PREFIX}{len(synthetic)}", taken_ids)
        taken_ids.add(tid)
        synthetic.append(PdaTransition(tid, source, None, pop, EPSILON, target))

    for q in pda.finals_ordered():
        synth(q, EPSILON, drain)
    for a in pda.stack_alphabet:
        synth(drain, (a,), drain)
    synth(drain, (bottom,), final)

    p0 = Pda(
        states=pda.states + (drain, final),
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet + (bottom,),
        transitions=pda.transitions + tuple(synthetic),
        initial=pda.initial,
        finals=frozenset({final}),
    )
    return AugmentedPda(
        p0=p0,
        bottom_marker=bottom,
        drain_state=drain,
        final_state=final,
        synthetic_ids=frozenset(t.id for t in synthetic),
    )

