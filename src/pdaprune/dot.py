"""DOT (graphviz) export for automata and summary NFAs.

Final states are drawn as double circles, the initial state gets an
incoming arrow from a point-shaped helper node, and the empty string is
rendered as "eps".
"""

from .model import M0, NfaSummary, Pda, State, is_final


# The helper node behind the initial arrow.  Its ID holds a space, which
# no state name can, so it never merges with a state's node.
_START = '"initial arrow"'


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pda_to_dot(pda: Pda) -> str:
    lines = ["digraph pda {", "  rankdir=LR;", f'  {_START} [shape=point, label=""];']
    for q in pda.states:
        shape = "doublecircle" if q in pda.finals else "circle"
        lines.append(f"  {_quote(q)} [shape={shape}];")
    lines.append(f"  {_START} -> {_quote(pda.initial)};")
    for t in pda.transitions:
        inp = t.input if t.input is not None else "eps"
        pop = ",".join(t.pop) or "eps"
        push = ",".join(t.push) or "eps"
        label = _quote(f"{t.id}: {inp} : {pop}/{push}")
        lines.append(f"  {_quote(t.source)} -> {_quote(t.target)} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
