"""Naive reference implementations the tests compare the library against.

Each one is written for clarity over the plain model types and shares no
code with the optimized paths it checks.
"""

from collections import deque

from pdaprune import M0, Configuration
from pdaprune.model import NfaShapeError


def moves(pda, max_stack=None):
    """The single-move relation of ``pda`` as a function of a configuration.

    The returned function maps ``cfg`` to the pairs (transition, successor
    configuration) whose successor stack holds at most ``max_stack``
    symbols (any number when ``max_stack`` is None).  Input symbols are
    disregarded.  Each configuration's moves are computed once and the same
    list is returned on every later call (callers must not change it): a
    search over (configuration, input read) pairs asks for them many times.
    """
    by_source = pda.by_source()
    memo = {}

    def from_cfg(cfg):
        out = memo.get(cfg)
        if out is None:
            out = memo[cfg] = []
            for t in by_source.get(cfg.state, ()):
                k = len(t.pop)
                if cfg.stack[:k] == t.pop:
                    stack = t.push + cfg.stack[k:]
                    if max_stack is None or len(stack) <= max_stack:
                        out.append((t, Configuration(t.target, stack)))
        return out

    return from_cfg


def step(pda, cfg):
    """All single moves from ``cfg``; input symbols are disregarded.

    Returns pairs (transition id, successor configuration).
    """
    return {(t.id, nxt) for t, nxt in moves(pda)(cfg)}


def bfs(start, successors, max_moves=None):
    """Breadth-first distances of every node reachable from ``start``.

    ``successors(node)`` yields the nodes one move away.  Nodes at distance
    ``max_moves`` are reported but not expanded.  This is the test suite's
    one graph walk: the bounded searches below feed it PDA configurations or
    (configuration, input read so far) pairs, and the NFA references feed it
    summary states or (state, pop position) pairs.
    """
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if max_moves is not None and d >= max_moves:
            continue
        for nxt in successors(node):
            if nxt not in dist:
                dist[nxt] = d + 1
                frontier.append(nxt)
    return dist


def bounded_reachable(pda, start, max_stack, max_moves=None):
    """All configurations reachable from ``start`` through stacks <= max_stack."""
    move = moves(pda, max_stack)
    return set(bfs(start, lambda cfg: [nxt for _, nxt in move(cfg)], max_moves))


def bounded_fired(pda, start, max_stack):
    """Transitions that fire on some run within the stack bound."""
    reach = bounded_reachable(pda, start, max_stack)
    move = moves(pda, max_stack)
    return frozenset(t.id for cfg in reach for t, _ in move(cfg))


def bounded_language(pda, max_len, max_stack, max_moves, start=None):
    """Input strings of length <= max_len labeling an accepting bounded run.

    Runs start from ``start``, by default the initial state with an empty
    stack.
    """
    move = moves(pda, max_stack)

    def successors(node):
        cfg, word = node
        for t, nxt in move(cfg):
            longer = word if t.input is None else word + (t.input,)
            if len(longer) <= max_len:
                yield nxt, longer

    if start is None:
        start = Configuration(pda.initial, ())
    dist = bfs((start, ()), successors, max_moves)
    return {word for cfg, word in dist if cfg.state in pda.finals}


def bounded_derivations(g, max_len):
    """Terminal strings of length <= max_len derivable from the start symbol.

    Bottom-up fixpoint over truncated per-nonterminal languages; exact for
    the bounded fragment since strings never shrink while deriving.
    """
    lang = {a: set() for a in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            partial = {()}
            for s in rhs:
                if s in g.nonterminals:
                    pieces = lang[s]
                else:
                    pieces = {(s,)}
                partial = {
                    w + p
                    for w in partial
                    for p in pieces
                    if len(w) + len(p) <= max_len
                }
                if not partial:
                    break
            fresh = partial - lang[lhs]
            if fresh:
                lang[lhs] |= fresh
                changed = True
    return lang[g.start]


def nfa_shape_violations(nfa):
    """Post-construction invariants: shape and reachability from m0."""
    diags = []
    for s in nfa.states:
        if nfa.is_final(s) and s in nfa.gamma_out:
            diags.append(f"final state {s!r} has an outgoing gamma edge")
        if not nfa.is_final(s) and s not in nfa.gamma_out:
            diags.append(f"non-final state {s!r} lacks an outgoing gamma edge")
    for src, (label, dst) in nfa.gamma_out.items():
        if nfa.gamma_into.get(label, {}).get(dst) != src:
            diags.append(f"label index lacks {label} edge {src!r}->{dst!r}")
    for label, into in nfa.gamma_into.items():
        for dst, src in into.items():
            if nfa.gamma_out.get(src) != (label, dst):
                diags.append(f"label index has stray {label} edge {src!r}->{dst!r}")
    for x, y in nfa.eps_edges:
        if x not in nfa.states or y not in nfa.states:
            diags.append(f"eps edge {x!r}->{y!r} touches an unknown state")

    def successors(s):
        out = list(nfa.eps_out.get(s, ()))
        if s in nfa.gamma_out:
            out.append(nfa.gamma_out[s][1])
        return out

    seen = bfs(M0, successors) if M0 in nfa.states else {}
    for s in nfa.states - seen.keys():
        diags.append(f"state {s!r} unreachable from m0")
    return diags


def unique_gamma_path(nfa, y):
    """Follow gamma edges from y to the unique final state they reach.

    Returns the labels in path order (the reversed push string) and the
    endpoint.  Raises NfaShapeError if the walk cannot terminate.
    """
    labels = []
    seen = set()
    cur = y
    while not nfa.is_final(cur):
        if cur in seen:
            raise NfaShapeError(f"gamma cycle through {cur!r}")
        seen.add(cur)
        edge = nfa.gamma_out.get(cur)
        if edge is None:
            raise NfaShapeError(f"non-final state {cur!r} has no gamma edge")
        labels.append(edge[0])
        cur = edge[1]
    return tuple(labels), cur


def pop_path_moves(nfa, labels):
    """Moves over (state, position) pairs while reading ``labels`` in order.

    Epsilon edges keep the position; a gamma edge labeled ``labels[i]``
    advances position i to i + 1.
    """

    def successors(node):
        u, i = node
        out = [(v, i) for v in nfa.eps_out.get(u, ())]
        if i < len(labels):
            edge = nfa.gamma_out.get(u)
            if edge is not None and edge[0] == labels[i]:
                out.append((edge[1], i + 1))
        return out

    return successors


def naive_s(nfa, q, sigma, closure=None):
    """Brute-force S(q, sigma): the states that read sigma into q, bottom-most
    symbol first, with epsilon edges anywhere after the first symbol.

    One backward search over (state, labels read) pairs from (q, 0): an
    epsilon edge into the state keeps the count, the ``sigma[i]``-edge into
    it raises it to i + 1, and a node that has read all of sigma is not
    expanded.  Epsilon predecessors come from ``eps_out`` reversed, not from
    a closure index; ``closure`` is ignored, so that this function can stand
    in for ``forward.compute_s``.
    """
    if q not in nfa.states:
        return set()
    eps_into = {}
    for x, ys in nfa.eps_out.items():
        for y in ys:
            eps_into.setdefault(y, []).append(x)

    def predecessors(node):
        s, i = node
        if i == len(sigma):
            return []
        out = [(x, i) for x in eps_into.get(s, ())]
        src = nfa.gamma_into.get(sigma[i], {}).get(s)
        if src is not None:
            out.append((src, i + 1))
        return out

    return {s for s, i in bfs((q, 0), predecessors) if i == len(sigma)}


def closure_row(rows, s):
    """Row ``s`` of an ``EpsClosure`` map, ``to`` or ``fro``, read without
    creating an entry: a state no edge has touched has only itself."""
    return rows.get(s, {s})


def scratch_forward(nfa, s):
    """States reachable from s over epsilon edges (reflexive)."""
    return set(bfs(s, lambda u: nfa.eps_out.get(u, ())))


def scratch_backward(nfa, s):
    """States of ``nfa`` with an epsilon-only path to s (reflexive)."""
    return {u for u in nfa.states if s in scratch_forward(nfa, u)}


def scan_eps_on_paths(nfa, x, sigma, q):
    """Epsilon edges on any path x --a--> z ==sigma'==> q, a = sigma's bottom.

    The first hop is x's gamma edge; after it, the remaining labels of the
    reversed pop string may be interleaved with epsilon edges anywhere.  An
    edge qualifies only if it lies on a complete such path, so the scan
    intersects forward reachability from the hop target with backward
    reachability from q over the (state, position) product.  Only nodes
    the forward walk reached matter, so the backward walk follows its
    moves reversed.
    """
    if not sigma or q not in nfa.states:
        return set()
    hop = nfa.gamma_out.get(x)
    if hop is None or hop[0] != sigma[-1]:
        return set()
    labels = tuple(reversed(sigma[:-1]))
    step = pop_path_moves(nfa, labels)
    fwd = bfs((hop[1], 0), step)
    into = {}
    for node in fwd:
        for nxt in step(node):
            into.setdefault(nxt, []).append(node)
    bwd = bfs((q, len(labels)), lambda node: into.get(node, ()))
    return {(u, v) for u, i in fwd for v in nfa.eps_out.get(u, ()) if (v, i) in bwd}


def reference_backward(fwd, on_step=None):
    """U2 from a worklist built directly on unique_gamma_path and
    scan_eps_on_paths over the plain NFA of ``fwd.p0``, skipping the
    transitions in ``fwd.u1``.

    ``on_step``, when given, is called with the size of U2 after each
    processed edge.
    """
    nfa = fwd.nfa
    (final,) = fwd.p0.finals
    qf = nfa.number[final]
    reachable = [t for t in fwd.p0.transitions if t.id not in fwd.u1]
    seed = (M0, qf)
    if seed not in nfa.eps_edges:
        return frozenset(t.id for t in reachable)
    by_push_target = {}
    for t in reachable:
        by_push_target.setdefault((t.push, nfa.number[t.target]), []).append(t)
    u2 = {t.id for t in reachable}
    enqueued = {seed}
    pending = deque([seed])
    while pending:
        x, y = pending.popleft()
        labels, r = unique_gamma_path(nfa, y)
        for t in by_push_target.get((tuple(reversed(labels)), r), ()):
            q = nfa.number[t.source]
            if x not in fwd.ssets.get((q, t.pop), ()):
                continue
            u2.discard(t.id)
            if t.pop:
                for edge in scan_eps_on_paths(nfa, x, t.pop, q):
                    if edge not in enqueued:
                        enqueued.add(edge)
                        pending.append(edge)
        if on_step is not None:
            on_step(len(u2))
    return frozenset(u2)
