"""Forward saturation: build the summary NFA and the unreachable set.

The NFA is grown by repeated passes over the transitions of P0 until a pass
adds no state or edge.  For a transition ``q --pop/push--> r`` the set
S(q, pop) collects the NFA states from which popping ``pop`` lands in q;
each of them gets an epsilon jump to the head of the (unique) path that
spells the reversed push string into r.  Path establishment shares existing
suffixes, so per transition at most one path is ever created.  States are
the ints ``NfaSummary`` numbers; groups, S-sets and path targets use them.

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

``pop_levels`` is the one pop-path walk: level i holds the states i label
hops from q, each hop widened by a closure row.  ``compute_s`` reads S(q,
pop) off the last level of a walk over ``closure.to`` and ``gamma_into``;
the backward path scans take their backward levels from the same walk and
their forward levels from one over ``closure.fro`` and the inverted gamma
index.  The first level is q's row itself, so for a one-symbol pop
``compute_s`` intersects that row where it stands instead of copying it.
Closure rows, like the S-sets in ``ForwardResult.ssets``, are read and
never written by their readers.

The epsilon-closure index is the first of the two documented
optimizations: it replaces per-query backward scans over epsilon edges.
The backward procedure reads this NFA and its closures as built, without
copying or re-indexing them.
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


def pop_levels(
    rows: dict[State, set[State]],
    hops: dict[Symbol, dict[State, State]],
    q: State,
    labels: StackString,
) -> list[set[State]]:
    """Level i: the states i label hops from q, each hop widened by ``rows``.

    ``hops[label][s]`` is where a ``label`` hop from s leads, and a state
    without a row has only itself.  Over ``closure.to`` and ``gamma_into``
    level i holds the states that read ``labels[:i]`` (top-first) into q.
    Level 0 is q's row, not a copy.
    """
    levels = [rows.get(q, {q})]
    for label in labels:
        hop = hops.get(label, {})
        level: set[State] = set()
        for t in levels[-1] & hop.keys():
            s = hop[t]
            level.update(rows.get(s, (s,)))
        levels.append(level)
    return levels


def compute_s(nfa: NfaSummary, q: State, sigma: StackString, closure: EpsClosure) -> set[State]:
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
    level = pop_levels(closure.to, nfa.gamma_into, q, sigma[:-1])[-1]
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

    ``ssets`` maps each (source, pop) group, keyed by the source's NFA
    state, to its exact final S-set.  The sets are the ones saturation
    built, not copies: read-only, like the NFA and ``closure``.
    """

    nfa: NfaSummary
    u1: frozenset[str]
    ssets: dict[tuple[State, StackString], set[State]]
    path_head: dict[str, State]
    passes: int
    closure: EpsClosure = field(repr=False)
    p0: Pda = field(repr=False)


def run_forward(p0: Pda, bottom: Symbol) -> ForwardResult:
    """Saturate the NFA for P0 and return it with the unreachable set U1.

    P0 starts in its initial state with the bottom marker as the whole
    stack, which is what the seed edge m0 --bottom--> q0 encodes.
    """
    nfa = NfaSummary(p0.states)
    number = nfa.number
    nfa.add_gamma_edge(M0, bottom, number[p0.initial])
    closure = EpsClosure()

    groups: dict[tuple[State, StackString], list[PdaTransition]] = {}
    for t in p0.transitions:
        groups.setdefault((number[t.source], t.pop), []).append(t)
    path_head: dict[str, State] = {}
    # Overwritten every pass, after the group has read its previous value;
    # the final pass changes nothing, so its values are the S-sets of the
    # finished NFA that the backward procedure needs.
    ssets: dict[tuple[State, StackString], set[State]] = {}
    passes = 0
    while True:
        passes += 1
        # establish_path adds states only when it returns a new head, which
        # at once gets an epsilon edge: a pass without one changed nothing.
        changed = False
        for (q, pop), group in groups.items():
            previous = ssets.get((q, pop), ())
            s_set = ssets[(q, pop)] = compute_s(nfa, q, pop, closure)
            # S-sets only grow, so an S-set of the old size is the old one.
            if len(s_set) == len(previous):
                continue
            fresh = s_set.difference(previous)
            for t in group:
                head = path_head.get(t.id)
                if head is None:
                    head = path_head[t.id] = establish_path(
                        nfa, tuple(reversed(t.push)), number[t.target]
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
