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
nothing, so its S-sets are exact.  ``compute_s`` hops gamma edges through
the NFA's per-label index, intersecting the expanded states with the
targets of that label's edges instead of probing every expanded state.

The epsilon-closure index is the first of the two documented
optimizations: it replaces per-query backward scans over epsilon edges.
It is always maintained, because the backward procedure reads this NFA and
its closures as built, without copying or re-indexing them;
``use_closure_index=False`` only makes ``compute_s`` scan the epsilon edges
instead of reading it, to cross-check results.  Both modes must agree.
"""

from dataclasses import dataclass, field

from .model import M0, NfaSummary, Pda, PdaTransition, StackString, State, Symbol


class EpsClosure:
    """Incremental, reflexive epsilon-reachability index over the NFA.

    ``to[s]`` holds every state with an epsilon-only path to ``s`` (including
    ``s``); ``fro[s]`` is the forward mirror, needed to keep ``to`` exact as
    edges arrive one by one.  Entries materialize lazily so freshly created
    NFA states need no registration call.
    """

    def __init__(self) -> None:
        self.to: dict[State, set[State]] = {}
        self.fro: dict[State, set[State]] = {}

    def backward(self, s: State) -> set[State]:
        return self.to.setdefault(s, {s})

    def forward(self, s: State) -> set[State]:
        return self.fro.setdefault(s, {s})

    def add_edge(self, x: State, y: State) -> None:
        if y in self.forward(x):
            return
        sources = set(self.backward(x))
        targets = set(self.forward(y))
        for s in targets:
            self.backward(s).update(sources)
        for p in sources:
            self.forward(p).update(targets)


def eps_backward_set(
    nfa: NfaSummary, targets: set[State], closure: EpsClosure | None
) -> set[State]:
    """States with an epsilon-only path into ``targets`` (reflexive)."""
    if closure is not None:
        out: set[State] = set()
        for t in targets:
            out |= closure.backward(t)
        return out
    out = set(targets)
    frontier = list(targets)
    while frontier:
        s = frontier.pop()
        for p in nfa.eps_in.get(s, ()):
            if p not in out:
                out.add(p)
                frontier.append(p)
    return out


def compute_s(
    nfa: NfaSummary,
    q: str,
    sigma: StackString,
    closure: EpsClosure | None = None,
) -> set[State]:
    """The set S(q, sigma) of NFA states from which popping sigma reaches q.

    Scans backwards from q's own NFA state, peeling sigma top-first;
    epsilon expansion is allowed before every hop but not after the last one,
    so results are exactly the sources of a real gamma edge labeled with
    sigma's bottom-most symbol.
    """
    if q not in nfa.states:
        return set()
    targets = {q}
    for label in sigma:
        into = nfa.gamma_into.get(label)
        if into is None:
            return set()
        expanded = eps_backward_set(nfa, targets, closure)
        targets = {into[t] for t in expanded & into.keys()}
        if not targets:
            break
    return targets


def establish_path(nfa: NfaSummary, labels: tuple[Symbol, ...], z: State) -> State:
    """Ensure a gamma path spelling ``labels`` into ``z``; return its head.

    Reuses the unique existing suffix where possible and only then creates
    fresh intermediate states for the remaining prefix.
    """
    nfa.ensure_state(z)
    k = len(labels)
    while k > 0:
        src = nfa.gamma_in.get((labels[k - 1], z))
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
    nfa: NfaSummary
    u1: frozenset[str]
    ssets: dict[tuple[str, StackString], frozenset[State]]
    path_head: dict[str, State]
    passes: int
    closure: EpsClosure = field(repr=False)


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
    u1 = {t.id for t in p0.transitions}
    path_head: dict[str, State] = {}
    # Overwritten every pass; the final pass changes nothing, so its values
    # are the S-sets of the finished NFA that the backward procedure needs.
    ssets: dict[tuple[str, StackString], set[State]] = {}
    passes = 0
    while True:
        passes += 1
        changed = False
        for (q, pop), group in groups.items():
            if q not in nfa.states:
                ssets[(q, pop)] = set()
                continue
            s_set = ssets[(q, pop)] = compute_s(nfa, q, pop, index)
            if not s_set:
                continue
            for t in group:
                if t.id in u1:
                    u1.remove(t.id)
                    before = (len(nfa.states), nfa.gamma_edge_count())
                    head = establish_path(nfa, tuple(reversed(t.push)), t.target)
                    path_head[t.id] = head
                    if (len(nfa.states), nfa.gamma_edge_count()) != before:
                        changed = True
                else:
                    head = path_head[t.id]
                for x in s_set:
                    if nfa.add_eps_edge(x, head):
                        closure.add_edge(x, head)
                        changed = True
        if not changed:
            break

    return ForwardResult(
        nfa=nfa,
        u1=frozenset(u1),
        ssets={key: frozenset(s) for key, s in ssets.items()},
        path_head=path_head,
        passes=passes,
        closure=closure,
    )
