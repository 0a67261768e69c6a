"""Backward propagation: which reachable transitions can still accept.

A worklist of epsilon edges of the NFA is grown from m0 ->eps qf.  Each
edge x ->eps y justifies every reachable transition whose push path starts
at y and whose pop set S(q, pop) contains x; justifying a popping
transition in turn enqueues the epsilon edges lying on the matching pop
paths.  The run reads forward's NFA and epsilon closures as built, and a
scan's backward levels are forward's ``pop_levels``, the walk that also
yields S(q, pop).  The memo is the second documented optimization: a map
from each source state to its epsilon successors not yet put on the
worklist.  A path scan removes every edge it emits, so each edge enters
the worklist at most once.

Scans also skip sources that cannot contribute.  The backward levels of a
(q, labels) key are fixed, and ``unseen`` only shrinks, so each level keeps
the set of sources that are still live for it: sources with an unseen edge
into that level, collected at the key's first scan.  A scan walks only
``f_level & live`` and drops every source it visits, because once a
source's edges into a level have been emitted it can never gain another.
Each (level, source) pair is thus checked at most once per key, and a scan
whose levels have no live source left returns before building any forward
level.
"""

from dataclasses import dataclass
from typing import Callable

from .forward import EpsClosure, ForwardResult, pop_levels
from .model import M0, NfaSummary, Pda, StackString, State, Symbol


@dataclass
class BackwardResult:
    u2: frozenset[str]
    iterations: int
    empty_language: bool


class _PathLevels:
    """Per-level reach sets of pop-path scans over a finished NFA.

    The NFA never changes during the backward run, so path scans collapse to
    per-level intersections of sets.  The epsilon closures are the ones
    forward saturation maintained, read without creating entries.  Backward
    levels are forward's ``pop_levels``, reversed; each (q, labels) key keeps
    them together with its live sources, and forward levels are cached per
    (start, labels).
    """

    def __init__(self, nfa: NfaSummary, closure: EpsClosure):
        self.nfa = nfa
        self.closure = closure
        self.gamma_out = nfa.gamma_out
        self.fro = closure.fro
        self._fwd_levels: dict[tuple[State, tuple[Symbol, ...]], tuple] = {}
        self._bwd: dict[tuple[State, tuple[Symbol, ...]], tuple] = {}

    def _forward_levels(self, z0: State, labels: tuple[Symbol, ...]) -> tuple:
        """Level i holds the states reachable from z0 after i label hops."""
        levels = self._fwd_levels.get((z0, labels))
        if levels is None:
            # A state without a closure entry reaches only itself.
            levels = [self.fro.get(z0, {z0})]
            for label in labels:
                nxt: set[State] = set()
                for u in levels[-1]:
                    edge = self.gamma_out.get(u)
                    if edge is not None and edge[0] == label:
                        nxt |= self.fro.get(edge[1], {edge[1]})
                levels.append(nxt)
            levels = self._fwd_levels[(z0, labels)] = tuple(levels)
        return levels

    def scan_fresh(
        self, x: State, sigma: StackString, q: State, unseen: dict[State, set[State]]
    ) -> list[tuple[State, State]]:
        """Unseen epsilon edges on complete pop paths x --a--> z ==sigma'==> q.

        ``a`` is sigma's bottom-most symbol; after that hop the remaining
        labels may interleave with epsilon edges anywhere, so an edge
        qualifies when it joins forward level i to backward level i.  Only
        sources still live for level i are visited, and every edge returned
        is removed from ``unseen``.
        """
        hop = self.gamma_out.get(x)
        if hop is None or hop[0] != sigma[-1]:
            return []
        labels = tuple(reversed(sigma[:-1]))
        entry = self._bwd.get((q, labels))
        if entry is None:
            # Backward level i holds the states that can still read labels[i:] into q.
            bwd = pop_levels(self.nfa, q, sigma[:-1], self.closure)[::-1]
            live = [
                {u for u, rest in unseen.items() if not rest.isdisjoint(b_level)}
                for b_level in bwd
            ]
            entry = self._bwd[(q, labels)] = (bwd, live)
        bwd, live = entry
        if not any(live):
            return []
        fwd = self._forward_levels(hop[1], labels)
        out: list[tuple[State, State]] = []
        for f_level, b_level, sources in zip(fwd, bwd, live):
            if not sources:
                continue
            visit = f_level & sources
            sources -= visit
            for u in visit:
                rest = unseen.get(u)
                if rest is None:
                    continue
                hits = rest & b_level
                if hits:
                    rest -= hits
                    if not rest:
                        del unseen[u]
                    out.extend((u, v) for v in hits)
        return out


def run_backward(
    fwd: ForwardResult,
    p0: Pda,
    *,
    pick: Callable[[list], int] | None = None,
) -> BackwardResult:
    """Compute U2, the reachable transitions that reach no accepting run.

    ``p0`` is the automaton ``fwd`` was computed on; its single final state
    is the augmented one.  Transitions without a path head are unreachable
    and skipped, so P1 gives the same result.  If the NFA lacks the edge
    m0 ->eps qf the accepted language is empty and every reachable
    transition is returned, flagged ``empty_language``.  ``pick`` overrides
    the LIFO worklist discipline (it gets the list of pending entries and
    returns an index); neither U2 nor ``iterations`` depends on it.
    """
    nfa = fwd.nfa
    if len(p0.finals) != 1:
        raise ValueError("backward analysis requires the augmented single-final form")
    (qf,) = p0.finals
    reachable = [t for t in p0.transitions if t.id in fwd.path_head]
    all_ids = frozenset(t.id for t in reachable)
    seed = (M0, qf)
    if qf not in nfa.eps_out.get(M0, ()):
        return BackwardResult(u2=all_ids, iterations=0, empty_language=True)

    levels = _PathLevels(nfa, fwd.closure)
    # Every epsilon edge ends at the head of some transition's push path.
    by_head: dict[State, list] = {}
    for t in reachable:
        sset = fwd.ssets.get((t.source, t.pop), frozenset())
        by_head.setdefault(fwd.path_head[t.id], []).append((t, sset))

    unseen = {x: set(ys) for x, ys in nfa.eps_out.items()}
    unseen[M0].discard(qf)
    u2 = set(all_ids)
    pending = [seed]
    iterations = 0

    while pending:
        x, y = pending.pop(-1 if pick is None else pick(pending))
        iterations += 1
        for t, sset in by_head.get(y, ()):
            if x not in sset:
                continue
            u2.discard(t.id)
            if t.pop:
                pending.extend(levels.scan_fresh(x, t.pop, t.source, unseen))

    return BackwardResult(u2=frozenset(u2), iterations=iterations, empty_language=False)
