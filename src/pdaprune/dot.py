"""DOT (graphviz) export of the stack-summary NFA, for the ``nfa`` command.

Final states (the PDA's own states) are drawn as double circles, m0 gets
an incoming arrow from a point-shaped helper node, and epsilon edges are
dashed and labeled "eps".
"""

from .model import M0, NfaSummary, State, is_final


# The helper node behind the initial arrow.  Its ID holds a space, which
# no node ID ``s<i>`` does, so it never merges with a state's node.
_START = '"initial arrow"'


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _order(s: State) -> tuple:
    """m0 first, then PDA states by name, then intermediates by number."""
    return (s != M0, not is_final(s), s)


def _label(s: State) -> str:
    if is_final(s):
        return s
    return "m0" if s == M0 else f"n{s}"


def nfa_to_dot(nfa: NfaSummary) -> str:
    states = sorted(nfa.states, key=_order)
    names = {s: f"s{i}" for i, s in enumerate(states)}
    lines = ["digraph nfa {", "  rankdir=LR;", f'  {_START} [shape=point, label=""];']
    for s in states:
        shape = "doublecircle" if is_final(s) else "circle"
        lines.append(f"  {names[s]} [shape={shape}, label={_quote(_label(s))}];")
    lines.append(f"  {_START} -> {names[M0]};")
    for src, label, dst in sorted(
        nfa.gamma_edges(), key=lambda e: (_order(e[0]), e[1], _order(e[2]))
    ):
        lines.append(f"  {names[src]} -> {names[dst]} [label={_quote(label)}];")
    for x, y in sorted(nfa.eps_edges, key=lambda e: (_order(e[0]), _order(e[1]))):
        lines.append(f'  {names[x]} -> {names[y]} [label="eps", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
