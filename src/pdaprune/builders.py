"""Generators: seeded random automata and the grammar-to-PDA construction."""

import random

from .model import Grammar, Pda, PdaTransition, validate


def _checked(pda: Pda, builder: str) -> Pda:
    diags = validate(pda)
    if diags:
        raise ValueError(f"{builder} built an invalid pda: " + "; ".join(diags))
    return pda


def random_pda(
    seed: int,
    *,
    max_states: int = 6,
    max_trans: int = 12,
    max_pop_push: int = 2,
    gamma_size: int = 3,
    final_prob: float = 0.35,
) -> Pda:
    """Deterministic random PDA; sizes equal the given caps.

    Vary the caps with the seed to get a corpus of mixed sizes.  The result
    always validates.
    """
    if max_states < 1 or gamma_size < 1 or max_trans < 0 or max_pop_push < 0:
        raise ValueError("size parameters must be positive")
    if not 0.0 <= final_prob <= 1.0:  # also rejects NaN
        raise ValueError(f"final_prob must be in [0, 1], got {final_prob}")
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(max_states))
    inputs = ("x", "y")
    gamma = tuple(f"g{i}" for i in range(gamma_size))
    finals = frozenset(q for q in states if rng.random() < final_prob)

    def stack_string():
        n = rng.choice([0, 0, 0, 1, 1, 2, *range(3, max_pop_push + 1)])
        n = min(n, max_pop_push)
        return tuple(rng.choice(gamma) for _ in range(n))

    transitions = []
    for i in range(max_trans):
        transitions.append(
            PdaTransition(
                id=f"t{i}",
                source=rng.choice(states),
                input=rng.choice(inputs) if rng.random() < 0.3 else None,
                pop=stack_string(),
                push=stack_string(),
                target=rng.choice(states),
            )
        )
    pda = Pda(
        states=states,
        input_alphabet=inputs,
        stack_alphabet=gamma,
        transitions=tuple(transitions),
        initial=states[0],
        finals=finals,
    )
    return _checked(pda, "random_pda")


def cfg_to_pda(g: Grammar) -> Pda:
    """Top-down (expand/match) automaton for a grammar with string symbols.

    Production i becomes transition ``prod{i}``, so production-level and
    transition-level usefulness verdicts can be compared directly.  Raises
    ValueError when a grammar symbol cannot name a PDA symbol.
    """
    for s in g.nonterminals | g.terminals:
        if not isinstance(s, str):
            raise ValueError("cfg_to_pda needs a grammar over string symbols")
    end = "__end"
    while end in g.nonterminals or end in g.terminals:
        end += "_"
    states = ("qs", "ql", "qa")
    stack = tuple(sorted(g.nonterminals)) + tuple(sorted(g.terminals)) + (end,)
    transitions = [
        PdaTransition("start", "qs", None, (), (g.start, end), "ql"),
    ]
    for i, (lhs, rhs) in enumerate(g.productions):
        transitions.append(PdaTransition(f"prod{i}", "ql", None, (lhs,), tuple(rhs), "ql"))
    for a in sorted(g.terminals):
        transitions.append(PdaTransition(f"match_{a}", "ql", a, (a,), (), "ql"))
    transitions.append(PdaTransition("accept", "ql", None, (end,), (), "qa"))
    pda = Pda(
        states=states,
        input_alphabet=tuple(sorted(g.terminals)),
        stack_alphabet=stack,
        transitions=tuple(transitions),
        initial="qs",
        finals=frozenset({"qa"}),
    )
    return _checked(pda, "cfg_to_pda")
