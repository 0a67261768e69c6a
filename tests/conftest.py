import random
from contextlib import contextmanager

import pytest

import pdaprune.forward as forward_module
from pdaprune import M0, Pda, PdaTransition, make_grammar, random_pda, run_forward

from .reference import bfs, naive_s


def make_pda(states, inputs, stack, transitions, initial, finals):
    """Compact constructor: transitions as (id, src, inp, pop, push, dst)."""
    return Pda(
        states=tuple(states),
        input_alphabet=tuple(inputs),
        stack_alphabet=tuple(stack),
        transitions=tuple(
            PdaTransition(tid, src, inp, tuple(pop), tuple(push), dst)
            for tid, src, inp, pop, push, dst in transitions
        ),
        initial=initial,
        finals=frozenset(finals),
    )


# The worked example of the ``example1`` fixture, in the text format.
EXAMPLE1_DOC = """\
# worked example
state q0 initial
state q1
state q2
state q3 final
stack a b c d
trans t1 q0 - - a q1
trans t2 q0 - - b q1
trans t3 q0 - - d,a q2
trans t4 q1 - - c q2
trans t5 q1 - - d q2
trans t6 q2 - c,a - q3
trans t7 q2 - d,b - q3
"""


# Three small grammars: balanced parentheses, arithmetic expressions and
# one with unproductive and unreachable nonterminals.
GRAMMAR_DOCS = (
    "S -> ( S ) S |\n",
    "E -> E + T | T\nT -> T * F | F\nF -> ( E ) | x\n",
    "S -> a S b | A | B\nA -> a A | a\nB -> B b\nC -> c S\n",
)


def corpus(count, start_seed=0, max_states=6, max_trans=12, gamma_size=3):
    """Deterministic mixed-size corpus; sizes cycle within the given caps."""
    out = []
    for seed in range(start_seed, start_seed + count):
        out.append(
            random_pda(
                seed,
                max_states=seed % max_states + 1,
                max_trans=seed % (max_trans + 1),
                max_pop_push=2,
                gamma_size=seed % gamma_size + 1,
            )
        )
    return out


def random_grammar(seed, max_nonterminals=6, max_productions=12):
    """Seeded grammar over terminals a, b, c; any mix of useful and useless."""
    rng = random.Random(seed)
    nts = [f"N{i}" for i in range(rng.randint(1, max_nonterminals))]
    terminals = ["a", "b", "c"]
    productions = []
    for _ in range(rng.randint(1, max_productions)):
        lhs = rng.choice(nts)
        rhs = tuple(
            rng.choice(nts) if rng.random() < 0.4 else rng.choice(terminals)
            for _ in range(rng.randint(0, 3))
        )
        productions.append((lhs, rhs))
    return make_grammar(productions, start=nts[0])


def renamed(pda, names):
    """``pda`` with every name that is a key of ``names`` replaced, in
    every role, by the name it maps to."""

    def r(name):
        return names.get(name, name)

    def rs(seq):
        return tuple(map(r, seq))

    return Pda(
        states=rs(pda.states),
        input_alphabet=rs(pda.input_alphabet),
        stack_alphabet=rs(pda.stack_alphabet),
        transitions=tuple(
            PdaTransition(
                id=r(t.id),
                source=r(t.source),
                input=None if t.input is None else r(t.input),
                pop=rs(t.pop),
                push=rs(t.push),
                target=r(t.target),
            )
            for t in pda.transitions
        ),
        initial=r(pda.initial),
        finals=frozenset(rs(pda.finals)),
    )


def shuffled_transitions(pda, seed):
    rng = random.Random(seed)
    transitions = list(pda.transitions)
    rng.shuffle(transitions)
    return Pda(
        states=pda.states,
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet,
        transitions=tuple(transitions),
        initial=pda.initial,
        finals=pda.finals,
    )


def nfa_states(nfa, names):
    """The NFA states of the PDA states in ``names``, a space-separated list,
    in that order.  Tests look PDA states up by name only through this."""
    return tuple(map(nfa.number.__getitem__, names.split()))


def nfa_accepted_configs(nfa, max_len):
    """(state name, stack) pairs the summary NFA claims reachable, stacks
    <= max_len.

    Walks (state, label string read from m0) pairs, epsilon edges allowed
    anywhere; the stack is the reverse of a string read into a final state.
    """

    def successors(node):
        s, word = node
        out = [(t, word) for t in nfa.eps_out.get(s, ())]
        edge = nfa.gamma_out.get(s)
        if edge is not None and len(word) < max_len:
            out.append((edge[1], word + (edge[0],)))
        return out

    return {
        (nfa.name(s), tuple(reversed(word)))
        for s, word in bfs((M0, ()), successors)
        if nfa.is_final(s)
    }


@pytest.fixture
def example1():
    """The four-state worked example: t3 pushes 'da' that nothing can pop."""
    return make_pda(
        states=["q0", "q1", "q2", "q3"],
        inputs=[],
        stack=["a", "b", "c", "d"],
        transitions=[
            ("t1", "q0", None, "", "a", "q1"),
            ("t2", "q0", None, "", "b", "q1"),
            ("t3", "q0", None, "", "da", "q2"),
            ("t4", "q1", None, "", "c", "q2"),
            ("t5", "q1", None, "", "d", "q2"),
            ("t6", "q2", None, "ca", "", "q3"),
            ("t7", "q2", None, "db", "", "q3"),
        ],
        initial="q0",
        finals=["q3"],
    )


@pytest.fixture
def example1_p0_restricted():
    """Example-1 P0 with the drain state left out: q3 pops the marker itself.

    This is the exact instance whose summary NFA the golden tests pin down.
    """
    return make_pda(
        states=["q0", "q1", "q2", "q3", "qf"],
        inputs=[],
        stack=["a", "b", "c", "d", "b0"],
        transitions=[
            ("t1", "q0", None, "", "a", "q1"),
            ("t2", "q0", None, "", "b", "q1"),
            ("t3", "q0", None, "", "da", "q2"),
            ("t4", "q1", None, "", "c", "q2"),
            ("t5", "q1", None, "", "d", "q2"),
            ("t6", "q2", None, "ca", "", "q3"),
            ("t7", "q2", None, "db", "", "q3"),
            ("t8", "q3", None, ["b0"], [], "qf"),
        ],
        initial="q0",
        finals=["qf"],
    )


@pytest.fixture
def golden(example1_p0_restricted):
    """Forward result on the restricted example: the golden summary NFA."""
    return run_forward(example1_p0_restricted, "b0")


@pytest.fixture
def brute_force_s(monkeypatch):
    """A context manager under which forward computes every S-set with the
    brute-force ``naive_s`` in place of the closure-indexed ``compute_s``.

    It yields the list of (q, sigma) keys ``naive_s`` was called with, so a
    test can check that the swap reached ``run_forward``.
    """
    calls = []

    def counted(nfa, q, sigma, closure):
        calls.append((q, sigma))
        return naive_s(nfa, q, sigma, closure)

    @contextmanager
    def swapped():
        with monkeypatch.context() as m:
            m.setattr(forward_module, "compute_s", counted)
            yield calls

    return swapped
