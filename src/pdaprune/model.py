"""Core domain types: pushdown automata, configurations, context-free
grammars and the summary NFA.

Stack strings are tuples of symbol names written TOP-FIRST: index 0 is the
top of the stack.  A transition ``q --in, pop/push--> r`` applicable in
configuration ``(q, pop + rest)`` yields ``(r, push + rest)``.  All string
reversals needed by the NFA construction happen at the NFA boundary, never
inside the PDA semantics.
"""

import re
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterator, NamedTuple

Symbol = str
StackString = tuple[Symbol, ...]

EPSILON: StackString = ()

# The one rule for state, symbol and transition-id names: non-empty, no
# whitespace, no comma, no '#' (comment character of the text format).
# The analysis marks every name it adds with '#', so none meets an input's.
_NAME = re.compile(r"[^\s,#]+")


def is_valid_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


@dataclass(frozen=True, slots=True)
class PdaTransition:
    """One transition; ``input`` is None for an epsilon input."""

    id: str
    source: str
    input: Symbol | None
    pop: StackString
    push: StackString
    target: str

    def __str__(self) -> str:
        inp = self.input if self.input is not None else "eps"
        pop = ",".join(self.pop) or "eps"
        push = ",".join(self.push) or "eps"
        return f"{self.id}: {self.source} --{inp}, {pop}/{push}--> {self.target}"


@dataclass(frozen=True)
class Pda:
    """A nondeterministic pushdown automaton.

    ``states`` and the alphabets are tuples because declaration order is the
    canonical iteration order everywhere (analysis passes, printing, DOT).
    """

    states: tuple[str, ...]
    input_alphabet: tuple[Symbol, ...]
    stack_alphabet: tuple[Symbol, ...]
    transitions: tuple[PdaTransition, ...]
    initial: str
    finals: frozenset[str]

    def finals_ordered(self) -> tuple[str, ...]:
        """Final states in declaration order."""
        return tuple(q for q in self.states if q in self.finals)

    def by_source(self) -> dict[str, list[PdaTransition]]:
        out: dict[str, list[PdaTransition]] = {q: [] for q in self.states}
        for t in self.transitions:
            out.setdefault(t.source, []).append(t)
        return out


class Configuration(NamedTuple):
    state: str
    stack: StackString


def validate(pda: Pda) -> list[str]:
    """Check all Pda invariants; return one diagnostic per violation.

    The rules: states, input symbols, stack symbols and transition ids are
    names (``is_valid_name``), and no symbol is ``-``; declarations and ids
    are unique; the initial and final states, every source and target are
    declared states; every input symbol and every popped or pushed symbol
    is declared.  Each rule is decided on whole sets, the four name rules
    by one match over every name; only a rule that fails walks its items,
    to word one diagnostic per offending item.
    """
    diags: list[str] = []
    ts = pda.transitions
    ids = {t.id for t in ts}
    names = [*pda.states, *pda.input_alphabet, *pda.stack_alphabet, *ids]
    # The rule bars characters, not sequences, so non-empty strings are all
    # names exactly when their concatenation is one.  Without any names this
    # is False, which costs only walks over nothing.
    names_ok = all(names) and is_valid_name("".join(names))
    states = set(pda.states)
    if len(states) != len(pda.states):
        diags.append("duplicate state declaration")
    if not names_ok:
        diags += [f"invalid state name: {q!r}" for q in pda.states if not is_valid_name(q)]
    sigma = set(pda.input_alphabet)
    gamma = set(pda.stack_alphabet)
    for role, alpha, symbols in (
        ("input", pda.input_alphabet, sigma),
        ("stack", pda.stack_alphabet, gamma),
    ):
        if len(symbols) != len(alpha):
            diags.append(f"duplicate {role} symbol declaration")
        # '-' is the text format's empty string, so it cannot name a symbol.
        if "-" in symbols or not names_ok:
            diags += [
                f"invalid {role} symbol name: {a!r}"
                for a in alpha
                if not is_valid_name(a) or a == "-"
            ]
    if pda.initial not in states:
        diags.append(f"unknown state: initial {pda.initial!r}")
    if not states.issuperset(pda.finals):
        diags += [f"unknown state: final {q!r}" for q in sorted(pda.finals - states)]
    if (
        names_ok
        and len(ids) == len(ts)
        and states.issuperset([t.source for t in ts])
        and states.issuperset([t.target for t in ts])
        and sigma.issuperset([t.input for t in ts if t.input is not None])
        and gamma.issuperset(chain.from_iterable([t.pop for t in ts] + [t.push for t in ts]))
    ):
        return diags
    seen_ids: set[str] = set()
    for t in ts:
        if not is_valid_name(t.id):
            diags.append(f"invalid transition id: {t.id!r}")
        if t.id in seen_ids:
            diags.append(f"duplicate id: {t.id}")
        seen_ids.add(t.id)
        if t.source not in states:
            diags.append(f"unknown state: {t.id} source {t.source!r}")
        if t.target not in states:
            diags.append(f"unknown state: {t.id} target {t.target!r}")
        if t.input is not None and t.input not in sigma:
            diags.append(f"symbol outside alphabet: {t.id} input {t.input!r}")
        for a in t.pop:
            if a not in gamma:
                diags.append(f"symbol outside alphabet: {t.id} pop {a!r}")
        for a in t.push:
            if a not in gamma:
                diags.append(f"symbol outside alphabet: {t.id} push {a!r}")
    return diags


# ---------------------------------------------------------------------------
# Context-free grammars

GrammarSymbol = Hashable


@dataclass(frozen=True)
class Grammar:
    """Context-free grammar; symbols may be any hashable values."""

    nonterminals: frozenset
    terminals: frozenset
    productions: tuple[tuple[GrammarSymbol, tuple[GrammarSymbol, ...]], ...]
    start: GrammarSymbol

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise ValueError("start symbol is not a declared nonterminal")
        if both := self.nonterminals & self.terminals:
            names = ", ".join(sorted(map(repr, both)))
            raise ValueError(f"symbol is both a terminal and a nonterminal: {names}")
        for lhs, rhs in self.productions:
            if lhs not in self.nonterminals:
                raise ValueError(f"production lhs {lhs!r} is not a nonterminal")
            for s in rhs:
                if s not in self.nonterminals and s not in self.terminals:
                    raise ValueError(f"undeclared symbol {s!r} in production rhs")


def make_grammar(
    productions: list[tuple[GrammarSymbol, tuple[GrammarSymbol, ...]]],
    start: GrammarSymbol | None = None,
) -> Grammar:
    """Build a grammar deriving symbol roles: lhs symbols are nonterminal."""
    if not productions and start is None:
        raise ValueError("cannot infer a start symbol from an empty grammar")
    nonterminals = {lhs for lhs, _ in productions}
    if start is None:
        start = productions[0][0]
    nonterminals.add(start)
    terminals = set()
    for _, rhs in productions:
        for s in rhs:
            if s not in nonterminals:
                terminals.add(s)
    return Grammar(
        nonterminals=frozenset(nonterminals),
        terminals=frozenset(terminals),
        productions=tuple(productions),
        start=start,
    )


# ---------------------------------------------------------------------------
# Summary NFA

# A state of the summary NFA is a plain hashable value: a PDA state is its
# own name (a str), the seed m0 is 0 and intermediates are the ints 1, 2, ...
# in creation order.  PDA-inherited states are exactly the final states of
# the NFA, so the two kinds can never collide and no name is reserved.
State = str | int

M0: State = 0


def is_final(s: State) -> bool:
    """Whether ``s`` is a PDA state, i.e. a final state of the summary NFA."""
    return isinstance(s, str)


class NfaShapeError(Exception):
    """The NFA violates a structural invariant the construction guarantees."""


class NfaSummary:
    """NFA over the stack alphabet summarizing reachable stacks, in reverse.

    Mutated only during the forward construction; read-only afterwards.
    Each edge relation is stored once per direction the analysis walks.
    Gamma edges live in two single-valued maps, because each non-final
    state carries exactly one outgoing gamma edge and each (label, target)
    pair has at most one source: ``gamma_out[src] = (label, dst)`` and
    ``gamma_into[label][dst] = src``.  Epsilon edges live only in
    ``eps_out[src]``, the set of their targets; ``eps_edges`` is a view.
    """

    def __init__(self) -> None:
        self.states: set[State] = set()
        self.gamma_out: dict[State, tuple[Symbol, State]] = {}
        self.gamma_into: dict[Symbol, dict[State, State]] = {}
        self.eps_out: dict[State, set[State]] = {}
        self._next_mid = 1

    def new_intermediate(self) -> State:
        s = self._next_mid
        self._next_mid += 1
        self.states.add(s)
        return s

    def add_gamma_edge(self, src: State, label: Symbol, dst: State) -> None:
        if is_final(src):
            raise NfaShapeError(f"gamma edge from final state {src!r}")
        if src in self.gamma_out:
            raise NfaShapeError(f"second gamma edge out of {src!r}")
        into = self.gamma_into.setdefault(label, {})
        if dst in into:
            raise NfaShapeError(f"second gamma edge {label} into {dst!r}")
        self.states.add(src)
        self.states.add(dst)
        self.gamma_out[src] = (label, dst)
        into[dst] = src

    def add_eps_edge(self, x: State, y: State) -> bool:
        """Add x ->eps y unless already present; report whether added."""
        out = self.eps_out.get(x)
        if out is None:
            self.eps_out[x] = {y}
        elif y in out:
            return False
        else:
            out.add(y)
        return True

    @property
    def eps_edges(self) -> set[tuple[State, State]]:
        """Every epsilon edge as an (x, y) pair, built from ``eps_out``."""
        return {(x, y) for x, ys in self.eps_out.items() for y in ys}

    def gamma_edges(self) -> Iterator[tuple[State, Symbol, State]]:
        for src, (label, dst) in self.gamma_out.items():
            yield (src, label, dst)
