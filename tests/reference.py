"""Naive reference implementations the tests compare the library against.

Each one is written for clarity over the plain model types and shares no
code with the optimized paths it checks.
"""

from collections import deque
from dataclasses import replace

from pdaprune import EPSILON, M0, Configuration, Grammar, PdaTransition, is_final
from pdaprune.augment import _fresh
from pdaprune.model import NfaShapeError


def step(pda, cfg):
    """All single moves from ``cfg``; input symbols are disregarded.

    Returns pairs (transition id, successor configuration).
    """
    out = set()
    for t in pda.transitions:
        if t.source != cfg.state:
            continue
        k = len(t.pop)
        if cfg.stack[:k] == t.pop:
            out.add((t.id, Configuration(t.target, t.push + cfg.stack[k:])))
    return out


def support_initial_stack(pda, initial_stack):
    """Wrap ``pda`` so runs start from ``initial_stack`` instead of empty.

    Identity when the requested stack is empty.
    """
    if not initial_stack:
        return pda
    for a in initial_stack:
        if a not in pda.stack_alphabet:
            raise ValueError(f"initial stack symbol {a!r} outside stack alphabet")
    start = _fresh("__start", set(pda.states))
    tid = _fresh("__init", {t.id for t in pda.transitions})
    seed = PdaTransition(tid, start, None, EPSILON, initial_stack, pda.initial)
    return replace(
        pda,
        states=pda.states + (start,),
        transitions=pda.transitions + (seed,),
        initial=start,
    )


def bounded_fired(pda, start, max_stack):
    """Transitions that fire on some run within the stack bound."""
    by_source = pda.by_source()
    fired = set()
    seen = {start}
    frontier = deque([start])
    while frontier:
        cfg = frontier.popleft()
        for t in by_source.get(cfg.state, ()):
            k = len(t.pop)
            if cfg.stack[:k] != t.pop:
                continue
            stack = t.push + cfg.stack[k:]
            if len(stack) > max_stack:
                continue
            fired.add(t.id)
            nxt = Configuration(t.target, stack)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(fired)


def strip_markers(g):
    """The same grammar with the oracle's marker terminals erased."""

    def is_marker(s):
        return isinstance(s, tuple) and len(s) == 2 and s[0] == "#"

    return Grammar(
        nonterminals=g.nonterminals,
        terminals=frozenset(s for s in g.terminals if not is_marker(s)),
        productions=tuple(
            (lhs, tuple(s for s in rhs if not is_marker(s))) for lhs, rhs in g.productions
        ),
        start=g.start,
    )


def unique_gamma_path(nfa, y):
    """Follow gamma edges from y to the unique final state they reach.

    Returns the labels in path order (the reversed push string) and the
    endpoint.  Raises NfaShapeError if the walk cannot terminate.
    """
    labels = []
    seen = set()
    cur = y
    while not is_final(cur):
        if cur in seen:
            raise NfaShapeError(f"gamma cycle through {cur!r}")
        seen.add(cur)
        edge = nfa.gamma_out.get(cur)
        if edge is None:
            raise NfaShapeError(f"non-final state {cur!r} has no gamma edge")
        labels.append(edge[0])
        cur = edge[1]
    return tuple(labels), cur


def eps_predecessors(nfa):
    """The inverse of ``nfa.eps_out``: each state's epsilon predecessors."""
    out = {}
    for u, vs in nfa.eps_out.items():
        for v in vs:
            out.setdefault(v, set()).add(u)
    return out


def scan_eps_on_paths(nfa, x, sigma, q):
    """Epsilon edges on any path x --a--> z ==sigma'==> q, a = sigma's bottom.

    The first hop is x's gamma edge; after it, the remaining labels of the
    reversed pop string may be interleaved with epsilon edges anywhere.  An
    edge qualifies only if it lies on a complete such path, so the scan
    intersects forward reachability from the hop target with backward
    reachability from q over the (position, state) product.
    """
    if not sigma or q not in nfa.states:
        return set()
    hop = nfa.gamma_out.get(x)
    if hop is None or hop[0] != sigma[-1]:
        return set()
    labels = tuple(reversed(sigma[:-1]))
    k = len(labels)

    fwd = set()
    stack = [(hop[1], 0)]
    while stack:
        node = stack.pop()
        if node in fwd:
            continue
        fwd.add(node)
        u, i = node
        for v in nfa.eps_out.get(u, ()):
            stack.append((v, i))
        if i < k:
            edge = nfa.gamma_out.get(u)
            if edge is not None and edge[0] == labels[i]:
                stack.append((edge[1], i + 1))

    eps_in = eps_predecessors(nfa)
    bwd = set()
    stack = [(q, k)]
    while stack:
        node = stack.pop()
        if node in bwd:
            continue
        bwd.add(node)
        v, i = node
        for u in eps_in.get(v, ()):
            stack.append((u, i))
        if i > 0:
            src = nfa.gamma_into.get(labels[i - 1], {}).get(v)
            if src is not None:
                stack.append((src, i - 1))

    found = set()
    for u, i in fwd:
        for v in nfa.eps_out.get(u, ()):
            if (v, i) in bwd:
                found.add((u, v))
    return found


def reference_backward(fwd, p1):
    """U2 from a worklist built directly on unique_gamma_path and
    scan_eps_on_paths over the plain NFA."""
    nfa = fwd.nfa
    (qf,) = p1.finals
    seed = (M0, qf)
    if seed not in nfa.eps_edges:
        return frozenset(t.id for t in p1.transitions)
    by_push_target = {}
    for t in p1.transitions:
        by_push_target.setdefault((t.push, t.target), []).append(t)
    u2 = {t.id for t in p1.transitions}
    enqueued = {seed}
    pending = deque([seed])
    while pending:
        x, y = pending.popleft()
        labels, r = unique_gamma_path(nfa, y)
        for t in by_push_target.get((tuple(reversed(labels)), r), ()):
            if x not in fwd.ssets.get((t.source, t.pop), ()):
                continue
            u2.discard(t.id)
            if t.pop:
                for edge in scan_eps_on_paths(nfa, x, t.pop, t.source):
                    if edge not in enqueued:
                        enqueued.add(edge)
                        pending.append(edge)
    return frozenset(u2)
