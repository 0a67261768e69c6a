"""Independent verifiers: a bounded explicit search and an exact grammar check.

``bounded_useful`` walks the configuration graph directly under a stack and
a move bound; it is sound but not complete (its witnesses are definitely
useful) and backs ``verify --bounded``.  ``exact_useless`` validates the
automaton, converts it to a context-free grammar with
``pda_to_grammar(normalize(augment(pda)))`` and reuses the classic
useless-production elimination; each production keeps the id of the
transition it came from, which ties production usefulness back to
transition usefulness; ``exact_unreachable`` reuses it to split the useless
transitions.  Besides the model types, ``exact_useless`` shares
only ``validate`` and ``augment`` with the detector being verified, never
its forward or backward analysis.  The searches that only the test suite
needs (reachable configurations, bounded languages and derivations) live
in ``tests/reference.py``.
"""

from collections import deque
from dataclasses import replace

from .augment import BOTTOM, FINAL, augment
from .model import (
    Configuration,
    Grammar,
    GrammarSymbol,
    Pda,
    PdaTransition,
    Symbol,
    validate,
)

# ---------------------------------------------------------------------------
# Bounded explicit-state search


def bounded_useful(pda: Pda, max_stack: int, max_moves: int) -> frozenset[str]:
    """Transitions used on some accepting run within the bounds.

    Sound: every returned transition really occurs on a run from the initial
    configuration to a final state.  Not complete; larger bounds admit more.
    Distances are combined instead of tracking per-run transition sets: an
    edge lies on an accepting bounded run iff the shortest way in plus the
    shortest way from its endpoint to acceptance fits in the move budget.
    """
    for name, value in (("max_stack", max_stack), ("max_moves", max_moves)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    by_source = pda.by_source()
    start = Configuration(pda.initial, ())
    dist: dict[Configuration, int] = {start: 0}
    edges: list[tuple[Configuration, str, Configuration]] = []
    frontier = deque([start])
    while frontier:
        cfg = frontier.popleft()
        d = dist[cfg]
        if d >= max_moves:
            continue
        for t in by_source.get(cfg.state, ()):
            k = len(t.pop)
            if cfg.stack[:k] != t.pop:
                continue
            stack = t.push + cfg.stack[k:]
            if len(stack) > max_stack:
                continue
            nxt = Configuration(t.target, stack)
            edges.append((cfg, t.id, nxt))
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)

    back: dict[Configuration, list[tuple[Configuration, str]]] = {}
    for src, tid, dst in edges:
        back.setdefault(dst, []).append((src, tid))
    dist_back: dict[Configuration, int] = {
        c: 0 for c in dist if c.state in pda.finals
    }
    frontier = deque(dist_back)
    while frontier:
        cfg = frontier.popleft()
        d = dist_back[cfg]
        for src, _ in back.get(cfg, ()):
            if src not in dist_back:
                dist_back[src] = d + 1
                frontier.append(src)

    out = set()
    for src, tid, dst in edges:
        tail = dist_back.get(dst)
        if tail is not None and dist[src] + 1 + tail <= max_moves:
            out.add(tid)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Normalization: pop exactly one, push at most two


def normalize(p0: Pda) -> Pda:
    """Single-pop, <=2-push form of an augmented PDA.

    Every original transition t expands into edges that all keep t's id:
    first edges from t's source that read t's input, then one chain through
    added states ``f"{t.id}#{i}"`` to t's target.  Each added state has
    exactly one outgoing edge, so a run that takes any edge of t takes all
    of its chain, which is firing t.  A transition with an empty pop string
    has one first edge per stack symbol X of P0, popping X and pushing it
    back under the bottom-most symbol of t's push string; this is exact
    because P0's stack is empty only in ``FINAL``, which has no moves.  An
    added name is an id, ``#`` and digits; input names contain no ``#``
    and ``augment``'s names have nothing before theirs, so no added name
    clashes with another.  The stack alphabet is P0's.  The result, with
    its repeated ids, is not itself a valid ``Pda``.
    """
    added_states: list[str] = []
    out: list[PdaTransition] = []
    for t in p0.transitions:
        # The steps leave t.push in place of the last symbol popped: the
        # first push seeds its bottom-most symbol, and each further step
        # grows the stack by one, re-pushing the symbol it popped.
        tau = t.push
        grow = [((tau[i],), (tau[i - 1], tau[i])) for i in range(len(tau) - 1, 0, -1)]
        if t.pop:
            steps = [((x,), ()) for x in t.pop[:-1]] + [(t.pop[-1:], tau[-1:])] + grow
            first = [steps.pop(0)]
        else:
            first = [((x,), tau[-1:] + (x,)) for x in p0.stack_alphabet]
            steps = grow
        # The first edges lead into one chain t.id#0, t.id#1, ... to t.target.
        source = f"{t.id}#0" if steps else t.target
        for pop, push in first:
            out.append(PdaTransition(t.id, t.source, t.input, pop, push, source))
        for i, (pop, push) in enumerate(steps, 1):
            added_states.append(source)
            target = f"{t.id}#{i}" if i < len(steps) else t.target
            out.append(PdaTransition(t.id, source, None, pop, push, target))
            source = target
    return replace(p0, states=p0.states + tuple(added_states), transitions=tuple(out))


# ---------------------------------------------------------------------------
# Grammar conversion and useless-production elimination


def pda_to_grammar(p: Pda) -> tuple[Grammar, list[str]]:
    """Triple construction on the normalized PDA, restricted to needed triples.

    The nonterminal (p, X, q) derives the inputs of runs from (p, X·rest)
    to (q, rest).  Returns the grammar and, aligned with its productions,
    the id of the transition whose edge spawned each one.  A transition is
    useful exactly when one of its productions is, because an accepting run
    that takes any edge of its chain takes the whole chain.  ``p`` is
    ``normalize``'s form of P0, so the start is (initial, BOTTOM, FINAL).
    """
    by_pop: dict[tuple[str, Symbol], list[PdaTransition]] = {}
    for t in p.transitions:
        if len(t.pop) != 1 or len(t.push) > 2:
            raise ValueError(f"transition {t.id} is not in normalized form")
        by_pop.setdefault((t.source, t.pop[0]), []).append(t)

    # The middle state of a two-symbol push must complete a pop, so only
    # targets of push-nothing edges can appear there.
    pop_exits = sorted({t.target for t in p.transitions if not t.push})

    start = (p.initial, BOTTOM, FINAL)
    productions: list[tuple[GrammarSymbol, tuple[GrammarSymbol, ...]]] = []
    origin: list[str] = []
    needed: set[tuple] = {start}
    queue = deque([start])

    def add(lhs, rhs, tid):
        productions.append((lhs, rhs))
        origin.append(tid)

    def need(triple):
        if triple not in needed:
            needed.add(triple)
            queue.append(triple)

    while queue:
        triple = queue.popleft()
        src, top, dst = triple
        for t in by_pop.get((src, top), ()):
            prefix: tuple[GrammarSymbol, ...] = () if t.input is None else (t.input,)
            if not t.push:
                if t.target == dst:
                    add(triple, prefix, t.id)
            elif len(t.push) == 1:
                child = (t.target, t.push[0], dst)
                add(triple, prefix + (child,), t.id)
                need(child)
            else:
                for mid in pop_exits:
                    left = (t.target, t.push[0], mid)
                    right = (mid, t.push[1], dst)
                    add(triple, prefix + (left, right), t.id)
                    need(left)
                    need(right)

    grammar = Grammar(
        nonterminals=frozenset(needed),
        terminals=frozenset(p.input_alphabet),
        productions=tuple(productions),
        start=start,
    )
    return grammar, origin


def grammar_useless(g: Grammar) -> frozenset[int]:
    """Indices of productions occurring in no terminating derivation.

    Two passes: the generating fixpoint, then reachability from the start
    symbol over the generating-restricted grammar.  A production survives
    iff its rhs is all-generating and its lhs is reachable in that
    restriction.
    """
    occurrences: dict[GrammarSymbol, list[int]] = {}
    missing = []
    for i, (_, rhs) in enumerate(g.productions):
        nts = [s for s in rhs if s in g.nonterminals]
        missing.append(len(nts))
        for s in nts:
            occurrences.setdefault(s, []).append(i)

    generating: set[GrammarSymbol] = set()
    ready = deque(i for i, m in enumerate(missing) if m == 0)
    while ready:
        i = ready.popleft()
        lhs = g.productions[i][0]
        if lhs in generating:
            continue
        generating.add(lhs)
        # One occurrence-list entry per rhs slot, so decrement by one each.
        for j in occurrences.get(lhs, ()):
            missing[j] -= 1
            if missing[j] == 0:
                ready.append(j)

    alive_by_lhs: dict[GrammarSymbol, list[int]] = {}
    for i, (lhs, _) in enumerate(g.productions):
        if missing[i] == 0:
            alive_by_lhs.setdefault(lhs, []).append(i)

    reached = {g.start}
    frontier = deque([g.start])
    while frontier:
        a = frontier.popleft()
        for i in alive_by_lhs.get(a, ()):
            for s in g.productions[i][1]:
                if s in g.nonterminals and s not in reached:
                    reached.add(s)
                    frontier.append(s)

    return frozenset(
        i
        for i, (lhs, _) in enumerate(g.productions)
        if missing[i] > 0 or lhs not in reached
    )


def exact_useless(pda: Pda) -> frozenset[str]:
    """The exact set of useless transition ids, via the grammar route."""
    diags = validate(pda)
    if diags:
        raise ValueError("; ".join(diags))
    grammar, origin = pda_to_grammar(normalize(augment(pda)))
    dead_prods = grammar_useless(grammar)
    live = {tid for i, tid in enumerate(origin) if i not in dead_prods}
    return frozenset(t.id for t in pda.transitions if t.id not in live)


def exact_unreachable(pda: Pda) -> frozenset[str]:
    """The exact set of unreachable transition ids: those still useless when
    every state is final, since then any run that fires a transition accepts."""
    return exact_useless(replace(pda, finals=frozenset(pda.states)))
