"""Backward propagation: which reachable transitions can still accept.

A worklist of epsilon edges of the NFA is grown from m0 ->eps qf.  Each
edge x ->eps y justifies every P1 transition whose push path starts at y
and whose pop set S(q, pop) contains x; justifying a popping transition in
turn enqueues the epsilon edges lying on the matching pop paths.  Every
edge is processed at most once.  The memo set is the second documented
optimization: edges once enqueued from a path scan are never offered again.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .forward import EpsClosure, ForwardResult
from .model import NfaState, NfaSummary, Pda, StackString, Symbol


@dataclass
class BackwardResult:
    u2: frozenset[str]
    iterations: int
    empty_language: bool


class _IndexedNfa:
    """Integer-indexed, fully closed view of a finished NFA.

    The NFA never changes during the backward run, so path scans collapse to
    per-level intersections of frozen sets.  The epsilon closures are the
    ones forward saturation maintained, read without creating entries; the
    per-level reach sets the scans share are cached.  Indexing follows the
    deterministic state order.
    """

    def __init__(self, nfa: NfaSummary, closure: EpsClosure):
        self.states = sorted(nfa.states, key=NfaState.sort_key)
        self.index = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        eps_out: list[set[int]] = [set() for _ in range(n)]
        for x, y in nfa.eps_edges:
            eps_out[self.index[x]].add(self.index[y])
        self.eps_out_set = [frozenset(v) for v in eps_out]
        self.gamma_out: list[tuple[Symbol, int] | None] = [None] * n
        for src, (label, dst) in nfa.gamma_out.items():
            self.gamma_out[self.index[src]] = (label, self.index[dst])
        self.gamma_in: dict[tuple[Symbol, int], int] = {
            (label, self.index[dst]): self.index[src]
            for (label, dst), src in nfa.gamma_in.items()
        }
        self.fro_closure = self._indexed(closure.fro)
        self.to_closure = self._indexed(closure.to)
        self._fwd_levels: dict[tuple[int, tuple[Symbol, ...]], tuple] = {}
        self._bwd_levels: dict[tuple[int, tuple[Symbol, ...]], tuple] = {}

    def _indexed(self, reach: dict[NfaState, set[NfaState]]) -> list[frozenset[int]]:
        """Per-state closures by index; a state without an entry reaches
        only itself."""
        index = self.index
        return [
            frozenset(index[t] for t in reach[s]) if s in reach else frozenset((i,))
            for i, s in enumerate(self.states)
        ]

    def _forward_levels(self, z0: int, labels: tuple[Symbol, ...]) -> tuple:
        """Level i holds the states reachable from z0 after i label hops."""
        key = (z0, labels)
        cached = self._fwd_levels.get(key)
        if cached is not None:
            return cached
        levels = [self.fro_closure[z0]]
        for label in labels:
            targets = set()
            for u in levels[-1]:
                edge = self.gamma_out[u]
                if edge is not None and edge[0] == label:
                    targets.add(edge[1])
            nxt: set[int] = set()
            for d in targets:
                nxt |= self.fro_closure[d]
            levels.append(frozenset(nxt))
        result = self._fwd_levels[key] = tuple(levels)
        return result

    def _backward_levels(self, q: int, labels: tuple[Symbol, ...]) -> tuple:
        """Level i holds the states that can still read labels[i:] into q."""
        key = (q, labels)
        cached = self._bwd_levels.get(key)
        if cached is not None:
            return cached
        k = len(labels)
        levels: list = [None] * (k + 1)
        levels[k] = self.to_closure[q]
        for i in range(k - 1, -1, -1):
            sources = set()
            for v in levels[i + 1]:
                src = self.gamma_in.get((labels[i], v))
                if src is not None:
                    sources.add(src)
            cur: set[int] = set()
            for s in sources:
                cur |= self.to_closure[s]
            levels[i] = frozenset(cur)
        result = self._bwd_levels[key] = tuple(levels)
        return result

    def scan_fresh(
        self, x: int, sigma: StackString, q: int, memo_out: dict[int, set[int]]
    ) -> list[tuple[int, int]]:
        """Epsilon edges on complete pop paths x --a--> z ==sigma'==> q.

        ``a`` is sigma's bottom-most symbol; after that hop the remaining
        labels may interleave with epsilon edges anywhere, so an edge
        qualifies when it joins forward level i to backward level i.  Edges
        recorded in ``memo_out`` are suppressed and new ones added to it, so
        across a whole run each edge surfaces at most once.
        """
        hop = self.gamma_out[x]
        if hop is None or hop[0] != sigma[-1]:
            return []
        labels = tuple(reversed(sigma[:-1]))
        fwd = self._forward_levels(hop[1], labels)
        bwd = self._backward_levels(q, labels)
        out: list[tuple[int, int]] = []
        for f_level, b_level in zip(fwd, bwd):
            if not f_level or not b_level:
                continue
            for u in f_level:
                hits = self.eps_out_set[u] & b_level
                if not hits:
                    continue
                seen = memo_out.get(u)
                if seen is not None:
                    hits = hits - seen
                    if not hits:
                        continue
                    seen |= hits
                else:
                    memo_out[u] = set(hits)
                for v in sorted(hits):
                    out.append((u, v))
        return out


def run_backward(
    fwd: ForwardResult,
    p1: Pda,
    *,
    pick: Callable[[list], int] | None = None,
) -> BackwardResult:
    """Compute U2, the transitions of P1 that reach no accepting run.

    ``p1`` must be P0 with the unreachable transitions removed; its single
    final state is the augmented one.  If the NFA lacks the edge
    m0 ->eps qf the accepted language is empty and every transition of P1
    is returned, flagged ``empty_language``.  ``pick`` overrides the FIFO
    worklist discipline (it gets the list of pending entries and returns an
    index); the result set does not depend on it.
    """
    nfa = fwd.nfa
    if len(p1.finals) != 1:
        raise ValueError("backward analysis requires the augmented single-final form")
    (qf,) = p1.finals
    all_ids = frozenset(t.id for t in p1.transitions)
    if (nfa.initial, NfaState.inherited(qf)) not in nfa.eps_edges:
        return BackwardResult(u2=all_ids, iterations=0, empty_language=True)

    infa = _IndexedNfa(nfa, fwd.closure)
    seed = (infa.index[nfa.initial], infa.index[NfaState.inherited(qf)])

    # Every epsilon edge ends at the head of some transition's push path.
    by_head: dict[int, list] = {}
    ssets_idx: dict[tuple[str, StackString], frozenset[int]] = {}
    for t in p1.transitions:
        if t.id in fwd.path_head:
            by_head.setdefault(infa.index[fwd.path_head[t.id]], []).append(t)
        key = (t.source, t.pop)
        if key not in ssets_idx:
            ssets_idx[key] = frozenset(infa.index[s] for s in fwd.ssets.get(key, ()))

    u2 = set(all_ids)
    enqueued: set[tuple[int, int]] = {seed}
    pending: deque[tuple[int, int]] | list[tuple[int, int]]
    pending = deque([seed]) if pick is None else [seed]
    memo_out: dict[int, set[int]] = {}
    iterations = 0

    while pending:
        if pick is None:
            x, y = pending.popleft()  # type: ignore[union-attr]
        else:
            x, y = pending.pop(pick(list(pending)))
        iterations += 1
        for t in by_head.get(y, ()):
            if x not in ssets_idx[(t.source, t.pop)]:
                continue
            u2.discard(t.id)
            if t.pop:
                q_idx = infa.index[NfaState.inherited(t.source)]
                for edge in infa.scan_fresh(x, t.pop, q_idx, memo_out):
                    if edge not in enqueued:
                        enqueued.add(edge)
                        pending.append(edge)

    return BackwardResult(u2=frozenset(u2), iterations=iterations, empty_language=False)
