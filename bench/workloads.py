"""Seeded workload generation for the benchmark.

Every input is built through the public ``pdaprune`` API (``builders``,
``textio`` and the model constructors) and serialized to PDA text, so the
timed pass starts from text exactly as ``pdaprune prune`` does.  The same
seed always yields byte-identical texts.

Each instance carries a reference verdict that never comes from ``analyze``:

* ``ladder``: a checked-in file of ``exact_useless`` results
  (``ladder_reference.json``, regenerated by ``make_reference.py``);
* ``deep-drain``: verdicts derived by hand from the construction;
* ``corpus``: ``exact_useless`` run live inside the benchmark, and for the
  grammar instances also ``grammar_useless`` at production level.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

from pdaprune import builders, oracle, textio
from pdaprune.model import Pda, PdaTransition

HERE = Path(__file__).resolve().parent
LADDER_REFERENCE = HERE / "ladder_reference.json"

# ladder: random_pda rungs shaped like the criterion-8 instance.
LADDER_RUNGS = (160, 240, 320)
LADDER_SEEDS_PER_RUNG = 2
LADDER_FIRST_SEED = 2024
LADDER_TRANSITIONS_PER_STATE = 6.4
LADDER_GAMMA = 4
LADDER_FINAL_PROB = 0.1

# deep-drain: (|gamma|, pushed symbols) per instance.
DEEP_DRAIN_SHAPES = ((1, 1000), (2, 1500), (4, 2000))

# corpus: the size cycle of tests/conftest.py::corpus repeats every
# lcm(6, 13, 3) = 78 seeds, so a multiple of 78 gives every seed the same
# size mix and only the machines themselves change.
CORPUS_SIZE_CYCLE = 78
CORPUS_SMALL = 13 * CORPUS_SIZE_CYCLE
CORPUS_GRAMMARS = 24
GRAMMAR_NONTERMINALS = 40
GRAMMAR_PRODUCTIONS = 120
GRAMMAR_TERMINALS = 8
GRAMMAR_TRAPS = 2

WORKLOADS = ("ladder", "deep-drain", "corpus")


@dataclass
class Instance:
    """One input of a workload and the verdict it must get.

    ``useless`` is the reference set of useless transition ids.  ``split``
    optionally pins the unreachable/dead partition, and ``productions`` the
    production-level verdict of a grammar instance.  ``verify`` marks the
    instances that are also run through ``exact_useless``.
    """

    name: str
    text: str
    transitions: int
    useless: frozenset[str] | None
    nonempty: bool | None = None
    split: tuple[frozenset[str], frozenset[str]] | None = None
    productions: frozenset[str] | None = None
    verify: bool = False


def shuffled(pda: Pda, rng: random.Random) -> Pda:
    """The same machine with its transitions in a seed-chosen order.

    Verdicts do not depend on transition order, so the reference of the
    unshuffled machine applies unchanged.
    """
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


# ---------------------------------------------------------------------------
# ladder


def ladder_pda(transitions: int, seed: int) -> Pda:
    return builders.random_pda(
        seed,
        max_states=round(transitions / LADDER_TRANSITIONS_PER_STATE),
        max_trans=transitions,
        gamma_size=LADDER_GAMMA,
        final_prob=LADDER_FINAL_PROB,
    )


def load_ladder_reference(path: Path = LADDER_REFERENCE) -> list[dict]:
    """The recorded ladder entries; refuses an entry with an empty language."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entries = data["entries"]
    for e in entries:
        if not e["nonempty"]:
            raise ValueError(f"ladder entry {e['transitions']}/{e['seed']} has an empty language")
    return entries


def ladder(seed: int, reference: list[dict]) -> list[Instance]:
    rng = random.Random(f"ladder:{seed}")
    out = []
    for e in reference:
        pda = shuffled(ladder_pda(e["transitions"], e["seed"]), rng)
        out.append(
            Instance(
                name=f"ladder-{e['transitions']}-{e['seed']}",
                text=textio.print_pda(pda),
                transitions=len(pda.transitions),
                useless=frozenset(e["useless"]),
                nonempty=True,
            )
        )
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# deep-drain


def deep_drain_pda(gamma_size: int, depth: int, rng: random.Random) -> Pda:
    """One transition pushes ``depth`` symbols on the way to the final state.

    ``push`` is useful: q0 -> q1 is an accepting run, since acceptance is by
    final state whatever the stack.  ``stray`` leaves ``qu``, which nothing
    enters, so it is unreachable.  ``stall`` enters ``qd``, which is not final
    and has no way out, so it is dead.
    """
    gamma = tuple(f"g{i}" for i in range(gamma_size))
    push = tuple(rng.choice(gamma) for _ in range(depth))
    transitions = [
        PdaTransition("push", "q0", None, (), push, "q1"),
        PdaTransition("stray", "qu", None, (), (), "q1"),
        PdaTransition("stall", "q0", None, (), (), "qd"),
    ]
    rng.shuffle(transitions)
    return Pda(
        states=("q0", "q1", "qu", "qd"),
        input_alphabet=(),
        stack_alphabet=gamma,
        transitions=tuple(transitions),
        initial="q0",
        finals=frozenset({"q1"}),
    )


def deep_drain(seed: int) -> list[Instance]:
    rng = random.Random(f"deep-drain:{seed}")
    out = []
    for gamma_size, depth in DEEP_DRAIN_SHAPES:
        pda = deep_drain_pda(gamma_size, depth, rng)
        # Empty-language guard, independent of analyze: the bounded search
        # must find the one-move accepting run through ``push``.
        if "push" not in oracle.bounded_useful(pda, max_stack=depth, max_moves=1):
            raise AssertionError(f"deep-drain {gamma_size}/{depth} lost its accepting run")
        out.append(
            Instance(
                name=f"deep-drain-g{gamma_size}-n{depth}",
                text=textio.print_pda(pda),
                transitions=len(pda.transitions),
                useless=frozenset({"stray", "stall"}),
                nonempty=True,
                split=(frozenset({"stray"}), frozenset({"stall"})),
            )
        )
    return out


# ---------------------------------------------------------------------------
# corpus


def corpus_small(seed: int, count: int = CORPUS_SMALL) -> list[Pda]:
    """The tests' mixed-size corpus, starting at a seed-dependent offset."""
    start = seed * count
    return [
        builders.random_pda(
            s,
            max_states=s % 6 + 1,
            max_trans=s % 13,
            max_pop_push=2,
            gamma_size=s % 3 + 1,
        )
        for s in range(start, start + count)
    ]


def grammar_text(rng: random.Random) -> str:
    """A productive grammar with some useless productions, as grammar text.

    Every ``N<i>`` has a base production over terminals and higher-numbered
    nonterminals, so all of them generate and ``N0`` has a non-empty
    language.  ``X<k>`` only derives itself and never terminates, so every
    production that mentions it is useless; nonterminals that no rhs
    mentions make their productions unreachable.
    """
    nts = [f"N{i}" for i in range(GRAMMAR_NONTERMINALS)]
    terms = [f"a{i}" for i in range(GRAMMAR_TERMINALS)]
    traps = [f"X{k}" for k in range(GRAMMAR_TRAPS)]
    lines = []
    for i, lhs in enumerate(nts):
        pool = terms + nts[i + 1 :]
        lines.append((lhs, [rng.choice(pool) for _ in range(rng.randint(1, 3))]))
    for x in traps:
        lines.append((x, [x, rng.choice(terms)]))
    anything = terms + nts
    while len(lines) < GRAMMAR_PRODUCTIONS:
        rhs = [
            rng.choice(traps) if rng.random() < 0.05 else rng.choice(anything)
            for _ in range(rng.randint(0, 3))
        ]
        lines.append((rng.choice(nts), rhs))
    rng.shuffle(lines)
    body = "\n".join(f"{lhs} -> {' '.join(rhs)}".rstrip() for lhs, rhs in lines)
    return f"%start {nts[0]}\n{body}\n"


def corpus(seed: int) -> list[Instance]:
    rng = random.Random(f"corpus:{seed}")
    out = []
    for i, pda in enumerate(corpus_small(seed)):
        out.append(
            Instance(
                name=f"corpus-small-{i}",
                text=textio.print_pda(pda),
                transitions=len(pda.transitions),
                useless=None,
                verify=True,
            )
        )
    for i in range(CORPUS_GRAMMARS):
        # A fixed pool in a fixed transition order: the slowest corpus
        # instance is a grammar, and its forward pass count follows the
        # transition order (shuffled, one grammar took 7 to 11 passes over
        # seeds 1-5), so a seeded draw or order would make classify_max_s
        # follow the seed.
        grammar = textio.parse_grammar(grammar_text(random.Random(f"grammar:{i}")))
        pda = builders.cfg_to_pda(grammar)
        out.append(
            Instance(
                name=f"corpus-grammar-{i}",
                text=textio.print_pda(pda),
                transitions=len(pda.transitions),
                useless=None,
                # cfg_to_pda turns production i into transition prod{i}, and
                # a production is useless exactly when that transition is.
                productions=frozenset(f"prod{i}" for i in oracle.grammar_useless(grammar)),
                verify=True,
            )
        )
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int) -> list[Instance]:
    if workload == "ladder":
        return ladder(seed, load_ladder_reference())
    if workload == "deep-drain":
        return deep_drain(seed)
    if workload == "corpus":
        return corpus(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
