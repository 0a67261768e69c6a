"""DOT (graphviz) export of the stack-summary NFA, for the ``nfa`` command.

Final states (the PDA's own states) are drawn as double circles labeled
by name, intermediates are labeled n1, n2, ... in creation order, m0 gets
an incoming arrow from a point-shaped helper node, and epsilon edges are
dashed and labeled "eps".
"""

from .model import M0, NfaSummary


# The helper node behind the initial arrow.  Its ID holds a space, which
# no node ID ``s<i>`` does, so it never merges with a state's node.
_START = '"initial arrow"'


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def nfa_to_dot(nfa: NfaSummary) -> str:
    # m0 first, then PDA states by name, then intermediates by number.
    states = sorted(
        nfa.states,
        key=lambda s: (s != M0, not nfa.is_final(s), nfa.name(s) if nfa.is_final(s) else s),
    )
    rank = {s: i for i, s in enumerate(states)}
    lines = ["digraph nfa {", "  rankdir=LR;", f'  {_START} [shape=point, label=""];']
    for s in states:
        if nfa.is_final(s):
            shape, label = "doublecircle", nfa.name(s)
        else:
            shape, label = "circle", "m0" if s == M0 else f"n{s - len(nfa.names)}"
        lines.append(f"  s{rank[s]} [shape={shape}, label={_quote(label)}];")
    lines.append(f"  {_START} -> s{rank[M0]};")
    for src, label, dst in sorted(nfa.gamma_edges(), key=lambda e: (rank[e[0]], e[1], rank[e[2]])):
        lines.append(f"  s{rank[src]} -> s{rank[dst]} [label={_quote(label)}];")
    for x, y in sorted(nfa.eps_edges, key=lambda e: (rank[e[0]], rank[e[1]])):
        lines.append(f'  s{rank[x]} -> s{rank[y]} [label="eps", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
