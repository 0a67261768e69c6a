import re

from pdaprune import nfa_to_dot, parse_pda, pda_to_dot, run_forward

from .conftest import make_pda


def count_nodes(dot):
    return sum(1 for line in dot.splitlines() if "shape=circle" in line or "shape=doublecircle" in line)


def count_labeled_edges(dot):
    return sum(1 for line in dot.splitlines() if "->" in line and "label=" in line)


def test_nfa_dot_example1(example1_p0_restricted):
    fwd = run_forward(example1_p0_restricted, "b0")
    dot = nfa_to_dot(fwd.nfa)
    assert count_nodes(dot) == 11
    assert count_labeled_edges(dot) == 14  # 6 gamma + 8 eps
    assert count_nodes(dot) == len(fwd.nfa.states)
    assert dot.count("doublecircle") == 5
    assert '"eps"' in dot and '"b0"' in dot


def test_pda_dot_empty_transitions():
    pda = make_pda(["q0"], [], [], [], "q0", ["q0"])
    dot = pda_to_dot(pda)
    assert count_nodes(dot) == 1
    assert count_labeled_edges(dot) == 0
    assert "doublecircle" in dot


# A DOT ID: a quoted string or a bare word.  "a" and a name the same node.
DOT_ID = re.compile(r'"((?:[^"\\]|\\.)*)"|(\w+)')


def dot_id(token):
    quoted, bare = DOT_ID.fullmatch(token).groups()
    return bare if quoted is None else re.sub(r"\\(.)", r"\1", quoted)


def test_pda_dot_start_helper_is_not_a_state():
    """The helper node behind the initial arrow keeps its own ID even when a
    state is named like it."""
    pda = parse_pda("state __start initial\nstate q final\ntrans t0 __start - - - q\n")
    lines = pda_to_dot(pda).splitlines()
    nodes = [dot_id(line.split(" [", 1)[0].strip()) for line in lines if "[shape=" in line]
    assert len(nodes) == len(set(nodes)) == 3
    arrow = next(line for line in lines if "->" in line)
    src, dst = (dot_id(side.strip(" ;")) for side in arrow.split("->"))
    assert dst == "__start" and src != dst
    assert src not in pda.states


def test_pda_dot_example1(example1):
    dot = pda_to_dot(example1)
    assert count_nodes(dot) == 4
    assert count_labeled_edges(dot) == 7
    assert "eps : c,a/eps" in dot
    assert dot.splitlines()[0] == "digraph pda {"


def test_dot_deterministic(example1_p0_restricted):
    fwd = run_forward(example1_p0_restricted, "b0")
    assert nfa_to_dot(fwd.nfa) == nfa_to_dot(fwd.nfa)
