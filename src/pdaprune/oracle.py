"""Independent verifiers: a bounded explicit search and an exact grammar check.

``bounded_useful`` walks the configuration graph directly under a stack and
a move bound; it is sound but not complete (its witnesses are definitely
useful) and backs ``verify --bounded``.  ``exact_useless`` converts the
automaton to a context-free grammar and reuses the classic
useless-production elimination; a fresh marker terminal per transition ties
production usefulness back to transition usefulness.  Neither shares code
with the detector being verified.  The searches that only the test suite
needs (reachable configurations, bounded languages and derivations) live
in ``tests/reference.py``.
"""

from collections import deque
from dataclasses import dataclass

from .augment import AugmentedPda, augment
from .model import (
    Configuration,
    Grammar,
    GrammarSymbol,
    Pda,
    PdaTransition,
    StackString,
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


@dataclass(frozen=True)
class NormalizedPda:
    """Single-pop, <=2-push form of an augmented PDA.

    Every original transition expands into a fixed chain through fresh
    states; the one designated representative edge of each chain keeps the
    original id, and ``original_ids`` holds those ids.  A transition with an
    empty pop string first pops and re-pushes the actual stack top under a
    fresh placeholder symbol, so all its per-top variants share the
    placeholder-consuming representative edge.
    """

    pda: Pda
    original_ids: frozenset[str]
    bottom: Symbol
    accept_state: str


def normalize(aug: AugmentedPda) -> NormalizedPda:
    p0 = aug.p0
    taken_ids = {t.id for t in p0.transitions}
    taken_states = set(p0.states)
    taken_syms = set(p0.stack_alphabet)
    mid_states: list[str] = []
    placeholders: list[Symbol] = []
    counters = {"state": 0, "sym": 0, "id": 0}

    def fresh(kind: str, prefix: str, taken: set[str], bucket: list | None) -> str:
        while True:
            name = f"{prefix}{counters[kind]}"
            counters[kind] += 1
            if name not in taken:
                taken.add(name)
                if bucket is not None:
                    bucket.append(name)
                return name

    out: list[PdaTransition] = []

    def emit(tid, source, inp, pop_sym, push, target):
        out.append(PdaTransition(tid, source, inp, (pop_sym,), tuple(push), target))

    def push_chain(tid, source, inp, pop_sym, tau: StackString, target):
        """Edges that pop ``pop_sym`` and leave ``tau`` in its place.

        The first edge seeds the bottom-most symbol of ``tau``; each further
        edge grows the stack by one, re-pushing the symbol it popped.
        """
        j = len(tau)
        if j == 0:
            emit(tid, source, inp, pop_sym, (), target)
            return
        cur = source
        dst = target if j == 1 else fresh("state", "__nm", taken_states, mid_states)
        emit(tid, cur, inp, pop_sym, (tau[j - 1],), dst)
        cur = dst
        for i in range(j - 1, 0, -1):
            dst = target if i == 1 else fresh("state", "__nm", taken_states, mid_states)
            emit(fresh("id", "__nt", taken_ids, None), cur, None, tau[i], (tau[i - 1], tau[i]), dst)
            cur = dst

    for t in p0.transitions:
        if t.pop:
            # Pure pops first, then the push chain rides on the last pop.
            cur, tid, inp = t.source, t.id, t.input
            for i in range(len(t.pop) - 1):
                nxt = fresh("state", "__nm", taken_states, mid_states)
                emit(tid, cur, inp, t.pop[i], (), nxt)
                tid, inp, cur = fresh("id", "__nt", taken_ids, None), None, nxt
            push_chain(tid, cur, inp, t.pop[-1], t.push, t.target)
        else:
            w = fresh("sym", "__w", taken_syms, placeholders)
            m = fresh("state", "__nm", taken_states, mid_states)
            for x in p0.stack_alphabet:
                emit(fresh("id", "__nt", taken_ids, None), t.source, t.input, x, (w, x), m)
            push_chain(t.id, m, None, w, t.push, t.target)

    (accept,) = p0.finals
    npda = Pda(
        states=p0.states + tuple(mid_states),
        input_alphabet=p0.input_alphabet,
        stack_alphabet=p0.stack_alphabet + tuple(placeholders),
        transitions=tuple(out),
        initial=p0.initial,
        finals=p0.finals,
    )
    return NormalizedPda(
        pda=npda,
        original_ids=frozenset(t.id for t in p0.transitions),
        bottom=aug.bottom_marker,
        accept_state=accept,
    )


# ---------------------------------------------------------------------------
# Grammar conversion and useless-production elimination

Marker = tuple[str, str]  # ("#", transition id) terminal tokens


def marker_for(tid: str) -> Marker:
    return ("#", tid)


def pda_to_grammar(npda: NormalizedPda) -> tuple[Grammar, dict[int, str | None]]:
    """Triple construction on the normalized PDA, restricted to needed triples.

    The nonterminal (p, X, q) derives the inputs of runs from (p, X·rest)
    to (q, rest).  Productions spawned by a representative edge carry a
    marker terminal, so a transition is useful exactly when one of its
    marked productions is.  Returns the grammar and the production-index ->
    origin-transition map (None for productions of non-representative edges).
    """
    p = npda.pda
    by_pop: dict[tuple[str, Symbol], list[PdaTransition]] = {}
    for t in p.transitions:
        if len(t.pop) != 1 or len(t.push) > 2:
            raise ValueError(f"transition {t.id} is not in normalized form")
        by_pop.setdefault((t.source, t.pop[0]), []).append(t)

    # The middle state of a two-symbol push must complete a pop, so only
    # targets of push-nothing edges can appear there.
    pop_exits = sorted({t.target for t in p.transitions if not t.push})

    start = (p.initial, npda.bottom, npda.accept_state)
    productions: list[tuple[GrammarSymbol, tuple[GrammarSymbol, ...]]] = []
    origin: dict[int, str | None] = {}
    needed: set[tuple] = {start}
    queue = deque([start])

    def add(lhs, rhs, origin_id):
        origin[len(productions)] = origin_id
        productions.append((lhs, rhs))

    def need(triple):
        if triple not in needed:
            needed.add(triple)
            queue.append(triple)

    while queue:
        triple = queue.popleft()
        src, top, dst = triple
        for t in by_pop.get((src, top), ()):
            origin_id = t.id if t.id in npda.original_ids else None
            prefix: tuple[GrammarSymbol, ...] = ()
            if origin_id is not None:
                prefix += (marker_for(origin_id),)
            if t.input is not None:
                prefix += (t.input,)
            if not t.push:
                if t.target == dst:
                    add(triple, prefix, origin_id)
            elif len(t.push) == 1:
                child = (t.target, t.push[0], dst)
                add(triple, prefix + (child,), origin_id)
                need(child)
            else:
                for mid in pop_exits:
                    left = (t.target, t.push[0], mid)
                    right = (mid, t.push[1], dst)
                    add(triple, prefix + (left, right), origin_id)
                    need(left)
                    need(right)

    terminals = set(p.input_alphabet)
    terminals.update(marker_for(tid) for tid in npda.original_ids)
    grammar = Grammar(
        nonterminals=frozenset(needed),
        terminals=frozenset(terminals),
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
    aug = augment(pda)
    npda = normalize(aug)
    grammar, origin = pda_to_grammar(npda)
    dead_prods = grammar_useless(grammar)
    live_origins = {
        origin[i]
        for i in range(len(grammar.productions))
        if i not in dead_prods and origin[i] is not None
    }
    return frozenset(
        t.id for t in pda.transitions if t.id not in live_origins
    )
