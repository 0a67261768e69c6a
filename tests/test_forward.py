import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdaprune.forward as forward_module
from pdaprune import (
    M0,
    EpsClosure,
    NfaSummary,
    augment,
    bounded_useful,
    cfg_to_pda,
    compute_s,
    establish_path,
    parse_grammar,
    run_forward,
)
from pdaprune.augment import BOTTOM, DRAIN, FINAL

from .conftest import GRAMMAR_DOCS, corpus, make_pda, nfa_states
from .reference import (
    closure_row,
    naive_s,
    nfa_shape_violations,
    scratch_backward,
    scratch_forward,
    unique_gamma_path,
)


def named_gamma_edges(nfa):
    """Gamma edges with intermediates renamed by their unique path to a
    final state, so the comparison is insensitive to allocation order."""

    def pathname(s):
        if s == M0:
            return "m0"
        if nfa.is_final(s):
            return nfa.name(s)
        labels, end = unique_gamma_path(nfa, s)
        return "via:" + "".join(labels) + ">" + nfa.name(end)

    return {(pathname(src), label, pathname(dst)) for src, label, dst in nfa.gamma_edges()}


def test_golden_intermediates_numbered_in_creation_order(golden):
    # m0 is 0, the five PDA states are 1..5 in declaration order, and the
    # declaration order of the example makes the intermediates 6..10 match
    # the classic n1..n5 naming exactly.
    assert named_gamma_edges(golden.nfa) is not None
    nfa = golden.nfa
    assert nfa_states(nfa, "q0 q1 q2 q3 qf") == (1, 2, 3, 4, 5)
    assert nfa.names == ("q0", "q1", "q2", "q3", "qf")
    mids = {s for s in nfa.states if not nfa.is_final(s) and s != M0}
    assert mids == {6, 7, 8, 9, 10}
    assert nfa.gamma_out[6] == ("a", 2)
    assert nfa.gamma_out[7] == ("b", 2)
    assert nfa.gamma_out[8] == ("a", 9)
    assert nfa.gamma_out[9] == ("d", 3)
    assert nfa.gamma_out[10] == ("c", 3)


def assert_fixpoint(p0, fwd):
    """One more pass over the transitions would change nothing, and every
    recorded S-set is the one the finished NFA gives."""
    nfa = fwd.nfa
    for t in p0.transitions:
        (q,) = nfa_states(nfa, t.source)
        s_set = naive_s(nfa, q, t.pop)
        assert fwd.ssets[(q, t.pop)] == s_set, t
        if not s_set:
            assert t.id in fwd.u1, t
            continue
        assert t.id not in fwd.u1, t
        head = fwd.path_head[t.id]
        for x in s_set:
            assert (x, head) in nfa.eps_edges, t


def test_golden_fixpoint(golden, example1_p0_restricted):
    assert_fixpoint(example1_p0_restricted, golden)


def test_fixpoint_on_corpus_and_grammars():
    """Grouped evaluation of the (source, pop) S-sets leaves a true fixpoint."""
    pdas = corpus(60) + [cfg_to_pda(parse_grammar(g)) for g in GRAMMAR_DOCS]
    for pda in pdas:
        p0 = augment(pda)
        assert_fixpoint(p0, run_forward(p0, BOTTOM))


def test_each_eps_edge_emitted_about_once(monkeypatch):
    """Only new S-set members get edges: a deep push that the drain pops one
    symbol per pass must not re-add the old edges on every pass."""
    rng = random.Random(200)
    push = tuple(rng.choice("ab") for _ in range(200))
    pda = make_pda(
        ["q0", "q1", "qu", "qd"],
        [],
        ["a", "b"],
        [
            ("push", "q0", None, "", push, "q1"),
            ("stray", "qu", None, "", "", "q1"),
            ("stall", "q0", None, "", "", "qd"),
        ],
        "q0",
        ["q1"],
    )
    calls = []
    add_eps_edge = NfaSummary.add_eps_edge

    def counted(nfa, x, y):
        calls.append((x, y))
        return add_eps_edge(nfa, x, y)

    monkeypatch.setattr(NfaSummary, "add_eps_edge", counted)
    p0 = augment(pda)
    fwd = run_forward(p0, BOTTOM)
    assert fwd.passes > 100
    assert len(calls) <= 2 * len(fwd.nfa.eps_edges)


@pytest.mark.parametrize(
    "name,calls,passes",
    [("example1", 20, 2), ("expressions", 84, 4)],
)
def test_evaluation_schedule_is_pinned(monkeypatch, example1, name, calls, passes):
    """Every pass evaluates every (source, pop) group once; the S-set size
    check skips only the work after an evaluation, never an evaluation.
    A worklist that evaluates less must update these pins on purpose."""
    pda = example1 if name == "example1" else cfg_to_pda(parse_grammar(GRAMMAR_DOCS[1]))
    evaluated = []
    original = forward_module.compute_s

    def counted(nfa, q, sigma, closure):
        evaluated.append((q, sigma))
        return original(nfa, q, sigma, closure)

    monkeypatch.setattr(forward_module, "compute_s", counted)
    p0 = augment(pda)
    fwd = run_forward(p0, BOTTOM)
    groups = {(t.source, t.pop) for t in p0.transitions}
    assert (len(evaluated), fwd.passes) == (calls, passes)
    assert len(evaluated) == fwd.passes * len(groups)


def test_compute_s_worked_values(golden):
    nfa, closure = golden.nfa, golden.closure
    q0, q1, q2, q3 = nfa_states(nfa, "q0 q1 q2 q3")
    assert compute_s(nfa, q3, ("b0",), closure) == {M0}
    assert compute_s(nfa, q0, (), closure) == {q0}
    n1 = nfa.gamma_into["a"][q1]
    assert compute_s(nfa, q2, ("c", "a"), closure) == {n1}
    n2 = nfa.gamma_into["b"][q1]
    assert compute_s(nfa, q2, ("d", "b"), closure) == {n2}


def test_compute_s_absent_state(golden):
    nowhere = max(golden.nfa.states) + 1
    assert compute_s(golden.nfa, nowhere, (), golden.closure) == set()
    assert compute_s(golden.nfa, nowhere, ("a",), golden.closure) == set()


def test_forward_empty_finals():
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", [])
    p0 = augment(pda)
    fwd = run_forward(p0, BOTTOM)
    assert (M0, *nfa_states(fwd.nfa, FINAL)) not in fwd.nfa.eps_edges
    drains = {t.id for t in p0.transitions if t.source == DRAIN}
    assert drains <= fwd.u1


def test_forward_self_loop_push():
    """Single push loop with the initial state final: everything reachable."""
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", ["q0"])
    p0 = augment(pda)
    fwd = run_forward(p0, BOTTOM)
    nfa = fwd.nfa
    q0, qf = nfa_states(nfa, f"q0 {FINAL}")
    assert fwd.u1 == frozenset()
    assert (M0, qf) in nfa.eps_edges
    loop = nfa.gamma_into["a"][q0]
    assert not nfa.is_final(loop)
    assert (q0, loop) in nfa.eps_edges
    assert nfa_shape_violations(nfa) == []
    # Cross-check with the explicit searcher at stack height 3.
    assert bounded_useful(pda, 3, 4) == {"t0"}


def test_establish_path_empty_labels():
    nfa = NfaSummary(["q0"])
    (z,) = nfa_states(nfa, "q0")
    nfa.states.add(z)
    assert establish_path(nfa, (), z) == z
    assert len(nfa.gamma_out) == 0


def test_establish_path_creates_chain():
    nfa = NfaSummary(["q2"])
    (z,) = nfa_states(nfa, "q2")
    head = establish_path(nfa, ("a", "d"), z)
    assert nfa.gamma_out[head][0] == "a"
    mid = nfa.gamma_out[head][1]
    assert nfa.gamma_out[mid] == ("d", z)
    assert len(nfa.states) == 3
    assert {head, mid} == {2, 3}


def test_establish_path_reuses_suffix():
    nfa = NfaSummary(["q2"])
    (z,) = nfa_states(nfa, "q2")
    n5 = nfa.new_intermediate()
    nfa.add_gamma_edge(n5, "c", z)
    before = len(nfa.gamma_out)
    assert establish_path(nfa, ("c",), z) == n5
    assert len(nfa.gamma_out) == before
    # Partial reuse: extend the shared suffix by one fresh state.
    head = establish_path(nfa, ("b", "c"), z)
    assert nfa.gamma_out[head] == ("b", n5)
    assert len(nfa.gamma_out) == before + 1


def test_closure_single_edge():
    c = EpsClosure()
    q0, n1 = 1, 2
    c.add_edge(q0, n1)
    assert closure_row(c.to, n1) == {n1, q0}


def test_closure_duplicate_edge_is_noop():
    c = EpsClosure()
    q0, n1 = 1, 2
    c.add_edge(q0, n1)
    snapshot = {s: set(v) for s, v in c.to.items()}
    c.add_edge(q0, n1)
    assert {s: set(v) for s, v in c.to.items()} == snapshot


def test_closure_transitive_on_golden(golden):
    nfa = golden.nfa
    q0, q1, q3 = nfa_states(nfa, "q0 q1 q3")
    n1 = nfa.gamma_into["a"][q1]
    n2 = nfa.gamma_into["b"][q1]
    b_q3 = closure_row(golden.closure.to, q3)
    assert b_q3 == {q3, n1, n2, q0}


def test_closure_matches_scratch_on_golden(golden):
    for s in golden.nfa.states:
        assert closure_row(golden.closure.to, s) == scratch_backward(golden.nfa, s)
        assert closure_row(golden.closure.fro, s) == scratch_forward(golden.nfa, s)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=25
    )
)
def test_closure_incremental_equals_scratch(edges):
    assert_closure_equals_scratch(range(8), edges)


# Cycles 0-1 and 1-2-3 sharing state 1, a self-loop on 3, a tail 2 -> 4.
CYCLIC_EDGES = ((0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 3), (2, 4))


def test_closure_incremental_equals_scratch_on_cycles():
    """``add_edge`` skips a row that already holds the new edge's endpoint;
    on a cycle that includes the rows of the endpoints themselves."""
    for order in itertools.permutations(CYCLIC_EDGES):
        assert_closure_equals_scratch(range(5), order)


def assert_closure_equals_scratch(nodes, edges):
    nfa = NfaSummary(())
    closure = EpsClosure()
    nfa.states.update(nodes)
    for x, y in edges:
        if nfa.add_eps_edge(x, y):
            closure.add_edge(x, y)
    for s in nodes:
        assert closure_row(closure.to, s) == scratch_backward(nfa, s), (edges, s)
        assert closure_row(closure.fro, s) == scratch_forward(nfa, s), (edges, s)


def test_compute_s_equals_bruteforce_on_golden(golden, example1_p0_restricted):
    nfa = golden.nfa
    for t in example1_p0_restricted.transitions:
        (q,) = nfa_states(nfa, t.source)
        assert compute_s(nfa, q, t.pop, golden.closure) == naive_s(nfa, q, t.pop), (t.source, t.pop)


def test_forward_closure_flag_equivalent(example1_p0_restricted, brute_force_s):
    """Forward with the brute-force S-sets in place of the closure-indexed
    ones builds the same NFA and S-sets."""
    with_index = run_forward(example1_p0_restricted, "b0")
    with brute_force_s() as calls:
        without = run_forward(example1_p0_restricted, "b0")
    assert len(calls) > 0
    assert with_index.u1 == without.u1
    assert with_index.nfa.eps_edges == without.nfa.eps_edges
    assert named_gamma_edges(with_index.nfa) == named_gamma_edges(without.nfa)
    assert with_index.ssets == without.ssets
