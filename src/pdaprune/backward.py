"""Backward propagation: which reachable transitions can still accept.

The one input is the forward result; its automaton, NFA, epsilon closures
and S-sets are read as built, with qf and each transition's source looked
up once as NFA states.  A worklist of epsilon edges of the NFA is grown
from m0 ->eps qf.  Each edge x ->eps y justifies every reachable
transition whose push path starts at y and whose pop set S(q, pop)
contains x; justifying a popping transition in turn enqueues the epsilon
edges lying on the matching pop paths.  Both levels of a path scan come
from forward's ``pop_levels``, the walk that gives ``compute_s`` its
S-sets: backward levels over ``closure.to`` and ``gamma_into`` from q,
forward levels over ``closure.fro`` and ``gamma_into`` inverted once per
call.  The memo is the second documented optimization: a map from each
source state to its epsilon successors not yet put on the worklist.  A
path scan removes every edge it emits, so each edge enters the worklist
at most once.  States are ints, so neither the work nor its order follows
PYTHONHASHSEED.

Scans also skip sources that cannot contribute.  The backward levels of a
(q, pop) key are fixed, and ``unseen`` only shrinks, so each level keeps
the set of sources that are still live for it: sources with an unseen edge
into that level, collected at the key's first scan.  A scan walks only
``f_level & live`` and drops every source it visits, because once a
source's edges into a level have been emitted it can never gain another.
Each (level, source) pair is thus checked at most once per key, and a scan
with no live source left returns before building any forward level.

Levels past level 0 are unions of closure rows, nearly all equal on an
epsilon cycle (ladder 320/2024 builds 413 levels with 10 contents), so
each content is stored once per call as an interned frozenset.  Level 0
is the closure row itself, and ``live`` stays per key, as scans shrink it.
"""

from dataclasses import dataclass
from typing import Callable

from .forward import ForwardResult, pop_levels
from .model import M0, StackString, State


@dataclass
class BackwardResult:
    u2: frozenset[str]
    iterations: int
    empty_language: bool


def run_backward(
    fwd: ForwardResult, *, pick: Callable[[list], int] | None = None
) -> BackwardResult:
    """Compute U2, the reachable transitions that reach no accepting run.

    ``fwd.p0`` must have one final state, as augmented automata do.  If the
    NFA lacks the edge m0 ->eps qf the accepted language is empty and every
    reachable transition is returned, flagged ``empty_language``.  ``pick``
    overrides the LIFO worklist (it gets the pending entries and returns an
    index); neither U2 nor ``iterations`` depends on it.
    """
    p0, nfa, closure = fwd.p0, fwd.nfa, fwd.closure
    if len(p0.finals) != 1:
        raise ValueError("backward analysis requires the augmented single-final form")
    (qf,) = (nfa.number[q] for q in p0.finals)
    reachable = [t for t in p0.transitions if t.id in fwd.path_head]
    u2 = {t.id for t in reachable}
    if qf not in nfa.eps_out.get(M0, ()):
        return BackwardResult(u2=frozenset(u2), iterations=0, empty_language=True)

    # Every epsilon edge ends at the head of some transition's push path.
    by_head: dict[State, list] = {}
    for t in reachable:
        q = nfa.number[t.source]
        by_head.setdefault(fwd.path_head[t.id], []).append((t, q, fwd.ssets[(q, t.pop)]))
    unseen = {x: set(ys) for x, ys in nfa.eps_out.items()}
    # Forward levels hop along gamma edges: view[label][src] is the target.
    view = {label: {u: v for v, u in into.items()} for label, into in nfa.gamma_into.items()}
    # On the finished NFA a path scan is per-level set intersections: backward
    # levels and their live sources per (q, pop[:-1]), forward per (z, pop[:-1]).
    bwd_levels: dict[tuple[State, StackString], tuple] = {}
    fwd_levels: dict[tuple[State, StackString], list] = {}
    interned: dict[frozenset[State], frozenset[State]] = {}

    def intern(level: set[State]) -> frozenset[State]:
        key = frozenset(level)
        return interned.setdefault(key, key)

    def scan(x: State, pop: StackString, q: State) -> list[tuple[State, State]]:
        """Unseen epsilon edges on complete pop paths x --pop[-1]--> z ==pop[:-1]==> q.

        After the first hop, epsilon edges may come anywhere, so an edge
        qualifies when it joins forward level i to backward level i.  Every
        edge returned is removed from ``unseen``.
        """
        rest = pop[:-1]
        entry = bwd_levels.get((q, rest))
        if entry is None:
            # Backward level i: the states that read all but i labels into q.
            built = pop_levels(closure.to, nfa.gamma_into, q, rest)
            bwd = [intern(b) for b in reversed(built[1:])] + built[:1]
            live = [{u for u, vs in unseen.items() if not vs.isdisjoint(b)} for b in bwd]
            entry = bwd_levels[(q, rest)] = (bwd, live)
        bwd, live = entry
        if not any(live):
            return []
        # x is in S(q, pop), so its one gamma edge reads pop[-1].
        z = view[pop[-1]][x]
        levels = fwd_levels.get((z, rest))
        if levels is None:
            # Forward level i: the states reached from z after i label hops.
            built = pop_levels(closure.fro, view, z, rest[::-1])
            levels = fwd_levels[(z, rest)] = built[:1] + [intern(f) for f in built[1:]]
        found: list[tuple[State, State]] = []
        for f_level, b_level, sources in zip(levels, bwd, live):
            if not sources:
                continue
            visit = f_level & sources
            sources -= visit
            for u in visit:
                vs = unseen.get(u)
                if vs is None:
                    continue
                hits = vs & b_level
                if hits:
                    vs -= hits
                    if not vs:
                        del unseen[u]
                    found.extend((u, v) for v in hits)
        return found

    pending = [(M0, qf)]
    iterations = 0
    while pending:
        x, y = pending.pop(-1 if pick is None else pick(pending))
        iterations += 1
        for t, q, sset in by_head.get(y, ()):
            if x not in sset:
                continue
            u2.discard(t.id)
            if t.pop:
                pending.extend(scan(x, t.pop, q))

    return BackwardResult(u2=frozenset(u2), iterations=iterations, empty_language=False)
