from pdaprune import nfa_to_dot, run_forward


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


def test_dot_deterministic(example1_p0_restricted):
    fwd = run_forward(example1_p0_restricted, "b0")
    assert nfa_to_dot(fwd.nfa) == nfa_to_dot(fwd.nfa)
