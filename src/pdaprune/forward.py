"""Forward saturation: build the summary NFA and the unreachable set.

The NFA is grown by repeated passes over the transitions of P0 until a pass
adds no state or edge.  For a transition ``q --pop/push--> r`` the set
S(q, pop) collects the NFA states from which popping ``pop`` lands in q;
each of them gets an epsilon jump to the head of the (unique) path that
spells the reversed push string into r.  Path establishment shares existing
suffixes, so per transition at most one path is ever created.

A pass walks the transitions grouped by (source, pop), in order of first
occurrence, and computes each group's S-set once: every transition of the
group fires or extends from that one set.  A set that goes stale within the
pass only delays an edge to the next pass, and the last pass changes
nothing, so its S-sets are exact.  A transition is unreachable exactly when
no pass gave it a path head.

Only members new since the group's previous evaluation get edges (the
"new members only" half of post* saturation).  S-sets only grow as the NFA
grows, and the first non-empty evaluation gives every transition of the
group its head, so each earlier member already has an edge to every head.
Because S-sets only grow, an evaluation whose S-set has its previous size
added nothing, and the group is done for the pass without comparing the
sets.  Most evaluations end there; the check skips the work after an
evaluation, never the evaluation itself.

``pop_levels`` is the one pop-path walk: ``compute_s`` reads S(q, pop) off
its last level, and the backward path scans take their backward levels from
it (their forward levels ``run_backward`` builds from ``closure.fro`` rows).
It hops gamma edges through the NFA's per-label index, intersecting a level
with the targets of that label's edges.  For a one-symbol pop the only
level is q's epsilon-closure row, which ``compute_s`` intersects where it
stands instead of copying it.  Closure rows, like the S-sets in
``ForwardResult.ssets``, are read and never written by their readers.

The epsilon-closure index is the first of the two documented
optimizations: it replaces per-query backward scans over epsilon edges.
It is always maintained, because the backward procedure reads this NFA and
its closures as built, without copying or re-indexing them;
``use_closure_index=False`` only makes ``compute_s`` find epsilon
predecessors by a fixpoint over the epsilon edges instead of reading it,
to cross-check results.  Both modes must agree.
"""

from dataclasses import dataclass, field

from .model import M0, NfaSummary, Pda, PdaTransition, StackString, State, Symbol


class EpsClosure:
    """Incremental, reflexive epsilon-reachability index over the NFA.

    ``to[s]`` holds every state with an epsilon-only path to ``s`` (including
    ``s``); ``fro[s]`` is the forward mirror, needed to keep ``to`` exact as
    edges arrive one by one.  Entries materialize lazily so freshly created
    NFA states need no registration call; a state without an entry has
    only itself in either row.

    A new edge x -> y unions ``to[x]`` into ``to[s]`` for every s in
    ``fro[y]``, and ``fro[y]`` into ``fro[p]`` for every p in ``to[x]``.
    Rows are exact before the edge, so a ``to`` row that already holds x
    already holds all of ``to[x]`` and is skipped; likewise a ``fro`` row
    that holds y.
    """

    def __init__(self) -> None:
        self.to: dict[State, set[State]] = {}
        self.fro: dict[State, set[State]] = {}

    def add_edge(self, x: State, y: State) -> None:
        to, fro = self.to, self.fro
        if y in fro.setdefault(x, {x}):
            return
        sources = to.setdefault(x, {x})
        targets = fro.setdefault(y, {y})
        to.setdefault(y, {y})
        # The endpoints' rows now exist in both maps.  Any other member of
        # the two rows below joined it in an earlier call, as a member of a
        # row that call iterated, so that call gave it its mirror row.  On a
        # cycle the skip covers to[x] and fro[y] themselves, so the two rows
        # being iterated are never the ones being updated.
        for s in targets:
            row = to[s]
            if x not in row:
                row.update(sources)
        for p in sources:
            row = fro[p]
            if y not in row:
                row.update(targets)


def eps_backward_set(
    nfa: NfaSummary, targets: set[State], closure: EpsClosure | None
) -> set[State]:
    """States with an epsilon-only path into ``targets`` (reflexive).

    Reads ``closure`` without creating entries; without one, a fixpoint over
    ``nfa.eps_out`` finds the predecessors.
    """
    out = set(targets)
    if closure is not None:
        for t in targets:
            out.update(closure.to.get(t, ()))
        return out
    while True:
        new = {x for x, ys in nfa.eps_out.items() if x not in out and not ys.isdisjoint(out)}
        if not new:
            return out
        out |= new


def pop_levels(
    nfa: NfaSummary, q: State, labels: StackString, closure: EpsClosure | None
) -> list[set[State]]:
    """Level i: the states that read ``labels[:i]`` into q, epsilon-closed.

    ``labels`` is top-first, so ``labels[0]`` is read last; epsilon moves
    may come anywhere on the way.
    """
    levels = [eps_backward_set(nfa, {q}, closure)]
    for label in labels:
        into = nfa.gamma_into.get(label, {})
        hop = {into[t] for t in levels[-1] & into.keys()}
        levels.append(eps_backward_set(nfa, hop, closure) if hop else hop)
    return levels


def compute_s(
    nfa: NfaSummary,
    q: str,
    sigma: StackString,
    closure: EpsClosure | None = None,
) -> set[State]:
    """The set S(q, sigma) of NFA states from which popping sigma reaches q.

    The sources of sigma[-1]-edges into the last pop level of sigma[:-1]:
    epsilon expansion is allowed before every hop but not after the last
    one, so results are exactly the sources of a real gamma edge labeled
    with sigma's bottom-most symbol.
    """
    if q not in nfa.states:
        return set()
    if not sigma:
        return {q}
    into = nfa.gamma_into.get(sigma[-1])
    if into is None:
        return set()
    if len(sigma) == 1 and closure is not None:
        # The one level is q's closure row, read in place.
        level = closure.to.get(q, (q,))
    else:
        level = pop_levels(nfa, q, sigma[:-1], closure)[-1]
    return {into[t] for t in into.keys() & level}


def establish_path(nfa: NfaSummary, labels: tuple[Symbol, ...], z: State) -> State:
    """Ensure a gamma path spelling ``labels`` into ``z``; return its head.

    Reuses the unique existing suffix where possible and only then creates
    fresh intermediate states for the remaining prefix.
    """
    nfa.states.add(z)
    k = len(labels)
    while k > 0:
        src = nfa.gamma_into.get(labels[k - 1], {}).get(z)
        if src is None:
            break
        z = src
        k -= 1
    if k == 0:
        return z
    chain = [nfa.new_intermediate() for _ in range(k)]
    for i in range(k - 1):
        nfa.add_gamma_edge(chain[i], labels[i], chain[i + 1])
    nfa.add_gamma_edge(chain[k - 1], labels[k - 1], z)
    return chain[0]


@dataclass
class ForwardResult:
    """The saturated NFA of ``p0`` and what the backward procedure reads off it.

    ``ssets`` maps each (source, pop) group to its exact final S-set.  The
    sets are the ones saturation built, not copies: read-only, like the
    NFA and ``closure``.
    """

    nfa: NfaSummary
    u1: frozenset[str]
    ssets: dict[tuple[str, StackString], set[State]]
    path_head: dict[str, State]
    passes: int
    closure: EpsClosure = field(repr=False)
    p0: Pda = field(repr=False)


def run_forward(p0: Pda, bottom: Symbol, *, use_closure_index: bool = True) -> ForwardResult:
    """Saturate the NFA for P0 and return it with the unreachable set U1.

    P0 starts in its initial state with the bottom marker as the whole
    stack, which is what the seed edge m0 --bottom--> q0 encodes.
    """
    nfa = NfaSummary()
    nfa.add_gamma_edge(M0, bottom, p0.initial)
    closure = EpsClosure()
    index = closure if use_closure_index else None

    groups: dict[tuple[str, StackString], list[PdaTransition]] = {}
    for t in p0.transitions:
        groups.setdefault((t.source, t.pop), []).append(t)
    path_head: dict[str, State] = {}
    # Overwritten every pass, after the group has read its previous value;
    # the final pass changes nothing, so its values are the S-sets of the
    # finished NFA that the backward procedure needs.
    ssets: dict[tuple[str, StackString], set[State]] = {}
    passes = 0
    while True:
        passes += 1
        # establish_path adds states only when it returns a new head, which
        # at once gets an epsilon edge: a pass without one changed nothing.
        changed = False
        for (q, pop), group in groups.items():
            previous = ssets.get((q, pop), ())
            s_set = ssets[(q, pop)] = compute_s(nfa, q, pop, index)
            # S-sets only grow, so an S-set of the old size is the old one.
            if len(s_set) == len(previous):
                continue
            fresh = s_set.difference(previous)
            for t in group:
                head = path_head.get(t.id)
                if head is None:
                    head = path_head[t.id] = establish_path(
                        nfa, tuple(reversed(t.push)), t.target
                    )
                for x in fresh:
                    if nfa.add_eps_edge(x, head):
                        closure.add_edge(x, head)
                        changed = True
        if not changed:
            break

    return ForwardResult(
        nfa=nfa,
        u1=frozenset(t.id for t in p0.transitions if t.id not in path_head),
        ssets=ssets,
        path_head=path_head,
        passes=passes,
        closure=closure,
        p0=p0,
    )
