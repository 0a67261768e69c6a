import pytest

from pdaprune import (
    Configuration,
    PdaTransition,
    augment,
    analyze,
    bounded_useful,
    exact_useless,
    grammar_useless,
    make_grammar,
    normalize,
    pda_to_grammar,
    random_pda,
)
from pdaprune.augment import BOTTOM, FINAL

from .conftest import corpus, make_pda
from .reference import (
    bounded_derivations,
    bounded_fired,
    bounded_language,
    bounded_reachable,
)


def test_bounded_useful_example1(example1):
    assert bounded_useful(example1, 4, 8) == {"t1", "t2", "t4", "t5", "t6", "t7"}


def test_bounded_useful_zero_moves(example1):
    assert bounded_useful(example1, 4, 0) == frozenset()
    trivial = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", ["q0"])
    assert bounded_useful(trivial, 4, 0) == frozenset()


def test_bounded_useful_monotone(example1):
    for h, m in [(0, 0), (1, 2), (2, 3), (3, 6)]:
        small = bounded_useful(example1, h, m)
        big = bounded_useful(example1, h + 1, m + 1)
        assert small <= big


def test_bounded_useful_move_bound_is_exact():
    # t1 and t3 accept in 2 moves; t0 and t2 only on the 3-move run t0 t2 t3.
    pda = make_pda(
        ["q0", "q1", "q2", "qf"],
        [],
        ["x"],
        [
            ("t0", "q0", None, "", "", "q1"),
            ("t1", "q0", None, "", "", "q2"),
            ("t2", "q1", None, "", "", "q2"),
            ("t3", "q2", None, "", "", "qf"),
        ],
        "q0",
        ["qf"],
    )
    assert bounded_useful(pda, 0, 3) == {"t0", "t1", "t2", "t3"}
    assert bounded_useful(pda, 0, 2) == {"t1", "t3"}


def test_bounded_useful_stack_bound_is_exact():
    # The one accepting run pushes two symbols and pops them.
    pda = make_pda(
        ["q0", "q1", "qf"],
        [],
        ["x"],
        [("t0", "q0", None, "", "xx", "q1"), ("t1", "q1", None, "xx", "", "qf")],
        "q0",
        ["qf"],
    )
    assert bounded_useful(pda, 2, 2) == {"t0", "t1"}
    assert bounded_useful(pda, 1, 2) == frozenset()


def test_bounded_language_all_eps_inputs(example1):
    assert bounded_language(example1, 3, 4, 10) == {()}


def test_bounded_language_trivial():
    accept = make_pda(["q0"], [], ["a"], [], "q0", ["q0"])
    reject = make_pda(["q0"], [], ["a"], [], "q0", [])
    assert bounded_language(accept, 2, 2, 2) == {()}
    assert bounded_language(reject, 2, 2, 2) == set()


def test_bounded_language_collects_symbols():
    pda = make_pda(
        ["q0", "q1"],
        ["x", "y"],
        ["a"],
        [
            ("t0", "q0", "x", "", "a", "q0"),
            ("t1", "q0", "y", "", "", "q1"),
            ("t2", "q1", None, "a", "", "q1"),
        ],
        "q0",
        ["q1"],
    )
    words = bounded_language(pda, 3, 3, 8)
    assert ("y",) in words
    assert ("x", "y") in words
    assert ("x", "x", "y") in words
    assert all(w[-1] == "y" for w in words)


def test_bounded_reachable_respects_start(example1):
    p0 = augment(example1)
    start = Configuration(p0.initial, (BOTTOM,))
    reach = bounded_reachable(p0, start, 4)
    assert start in reach
    assert Configuration("q3", (BOTTOM,)) in reach
    assert Configuration(FINAL, ()) in reach


@pytest.mark.parametrize(
    "call",
    [
        lambda pda: bounded_useful(pda, -1, 5),
        lambda pda: bounded_useful(pda, 4, -5),
        lambda pda: bounded_useful(pda, -1, -5),
    ],
)
def test_bounded_search_rejects_negative_bounds(call):
    with pytest.raises(ValueError):
        call(random_pda(3))


# ---------------------------------------------------------------------------
# Normalization


def npda_for(pda):
    return normalize(augment(pda))


def test_normalize_shapes(example1):
    npda = npda_for(example1)
    for t in npda.transitions:
        assert len(t.pop) == 1
        assert len(t.push) <= 2


def test_normalize_two_pop_chain(example1):
    # pop=ca push=eps expands to exactly two single-pop edges through one
    # added state, both keeping t6's id.
    npda = npda_for(example1)
    (first,) = [t for t in npda.transitions if t.source == "q2" and t.pop == ("c",)]
    assert first.push == () and first.target not in example1.states
    (second,) = [t for t in npda.transitions if t.source == first.target]
    assert second.pop == ("a",) and second.push == () and second.target == "q3"
    assert first.id == second.id == "t6"


def test_normalize_single_pop_single_push_unchanged():
    pda = make_pda(
        ["q0", "q1"], [], ["a"], [("t0", "q0", None, "a", "a", "q1")], "q0", ["q1"]
    )
    npda = npda_for(pda)
    kept = [t for t in npda.transitions if t.source == "q0"]
    assert kept == [PdaTransition("t0", "q0", None, ("a",), ("a",), "q1")]


def test_normalize_pop_eps_pops_each_top_symbol():
    pda = make_pda(
        ["q0", "q1"], [], ["d", "a"], [("t0", "q0", None, "", "da", "q1")], "q0", ["q1"]
    )
    p0 = augment(pda)
    npda = normalize(p0)
    assert npda.stack_alphabet == p0.stack_alphabet
    # One first edge per stack symbol X of P0 (d, a and the bottom marker),
    # each pushing X back under a, the bottom-most pushed symbol.
    first = [t for t in npda.transitions if t.source == "q0"]
    assert [t.pop for t in first] == [(x,) for x in p0.stack_alphabet]
    assert all(t.push == ("a", t.pop[0]) for t in first)
    (mid,) = {t.target for t in first}
    assert mid not in p0.states
    # The chain then grows a into da.
    (grow,) = [t for t in npda.transitions if t.source == mid]
    assert (grow.pop, grow.push, grow.target) == (("a",), ("d", "a"), "q1")
    assert {t.id for t in first} == {grow.id} == {"t0"}


def test_normalize_edges_keep_ids_through_marked_states(example1):
    # The names the normalizer once made up for itself are legal input names.
    taken = make_pda(
        ["__nm0", "__nm1", "q1"],
        ["x"],
        ["__w0", "a"],
        [
            ("__nt0", "__nm0", None, [], ["__w0", "a"], "__nm1"),
            ("__nt1", "__nm1", "x", ["__w0", "a"], ["a", "a", "__w0"], "q1"),
            ("__nt2", "q1", None, ["a"], [], "__nm0"),
        ],
        "__nm0",
        ["q1"],
    )
    for pda in [example1, taken] + corpus(40):
        p0 = augment(pda)
        npda = normalize(p0)
        edges = npda.transitions
        assert {t.id for t in edges} == {t.id for t in p0.transitions}, pda
        states, symbols = npda.states, npda.stack_alphabet
        assert len(set(states)) == len(states) and len(set(symbols)) == len(symbols)
        added = set(states) - set(p0.states)
        # The added states are exactly the chain states the edges run through.
        assert added == {t.source for t in edges} - set(p0.states), pda
        assert added == {t.target for t in edges} - set(p0.states), pda
        for q in added:
            assert sum(t.source == q for t in edges) == 1, (pda, q)
            assert len({t.id for t in edges if q in (t.source, t.target)}) == 1, (pda, q)
        assert symbols == p0.stack_alphabet, pda
        assert all("#" in name for name in added), pda
        for t in p0.transitions:
            grow = max(len(t.push) - 1, 0)
            expected = (len(t.pop) if t.pop else len(symbols)) + grow
            assert sum(e.id == t.id for e in edges) == expected, (pda, t)


def test_normalize_preserves_bounded_language(example1):
    corpus = [example1] + [random_pda(s, max_states=3, max_trans=5, gamma_size=2) for s in range(6)]
    for pda in corpus:
        p0 = augment(pda)
        npda = normalize(p0)
        start0 = Configuration(p0.initial, (BOTTOM,))
        # Same accepted inputs when both run from the marked initial stack;
        # the normalized pda needs more moves for its expanded chains.
        base = bounded_language(p0, 3, 5, 12, start=start0)
        norm = bounded_language(npda, 3, 7, 40, start=start0)
        assert base == norm, pda


def test_bounded_language_keeps_words_reached_late():
    # A word's configuration first reached on a long detour must still be
    # expanded when a shorter route reaches it later.
    pda = random_pda(377, max_states=3, max_trans=5, gamma_size=2)
    p0 = augment(pda)
    start0 = Configuration(p0.initial, (BOTTOM,))
    words = bounded_language(p0, 3, 5, 12, start=start0)
    assert words == {(), ("y",), ("y", "y"), ("y", "y", "y")}


# ---------------------------------------------------------------------------
# Grammar


def test_pda_to_grammar_single_transition():
    pda = make_pda(["q0"], [], ["a"], [], "q0", ["q0"])
    npda = npda_for(pda)
    grammar, origin = pda_to_grammar(npda)
    useless = grammar_useless(grammar)
    # Acceptance works purely through the synthetic drain, whose
    # productions are useful.
    assert len(origin) == len(grammar.productions)
    live = {origin[i] for i in range(len(grammar.productions)) if i not in useless}
    assert live
    assert bounded_derivations(grammar, 0) == {()}


def test_pda_to_grammar_example1_markers(example1):
    npda = npda_for(example1)
    grammar, origin = pda_to_grammar(npda)
    useless = grammar_useless(grammar)
    dead_origins = set()
    live_origins = set()
    for i in range(len(grammar.productions)):
        (live_origins if i not in useless else dead_origins).add(origin[i])
    assert "t3" not in live_origins
    assert {"t1", "t2", "t4", "t5", "t6", "t7"} <= live_origins


def test_grammar_useless_all_generating():
    g = make_grammar([("S", ("a", "S")), ("S", ("a",))])
    assert grammar_useless(g) == frozenset()


def test_grammar_useless_nongenerating():
    g = make_grammar([("S", ("A",)), ("A", ("A",))])
    assert grammar_useless(g) == {0, 1}


def test_grammar_useless_unreachable():
    g = make_grammar([("S", ("a",)), ("B", ("b",))], start="S")
    assert grammar_useless(g) == {1}


def test_grammar_useless_reachability_after_generating():
    # B is reachable only through a non-generating production.
    g = make_grammar([("S", ("A", "B")), ("A", ("A",)), ("B", ("b",))], start="S")
    assert grammar_useless(g) == {0, 1, 2}


def test_grammar_useless_repeated_nonterminal_in_rhs():
    # Both occurrences of A must be accounted once each.
    g = make_grammar([("S", ("a", "A", "A")), ("A", ("b",)), ("A", ("S", "A", "A"))])
    assert grammar_useless(g) == frozenset()
    g2 = make_grammar([("S", ("A", "A", "A")), ("A", ())])
    assert grammar_useless(g2) == frozenset()


def test_exact_useless_example1(example1):
    assert exact_useless(example1) == {"t3"}


def test_exact_useless_empty_finals():
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", [])
    assert exact_useless(pda) == {"t0"}


def test_exact_useless_rejects_an_invalid_pda():
    pda = make_pda(["q0"], [], [], [("t0", "q0", None, "", "", "q9")], "q0", ["q0"])
    with pytest.raises(ValueError, match="q9"):
        exact_useless(pda)


def test_pda_to_grammar_rejects_a_non_normalized_pda():
    # t0 pops two symbols; ``normalize`` would have split it.
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "aa", "", "q0")], "q0", ["q0"])
    with pytest.raises(ValueError, match="transition t0 is not in normalized form"):
        pda_to_grammar(pda)


def test_exact_useless_matches_analyze_smoke():
    for seed in range(40):
        pda = random_pda(
            seed,
            max_states=seed % 5 + 1,
            max_trans=seed % 9 + 1,
            gamma_size=seed % 3 + 1,
        )
        assert exact_useless(pda) == analyze(pda).useless, seed


def test_soundness_bridge():
    for seed in range(25):
        pda = random_pda(seed, max_states=4, max_trans=8, gamma_size=2)
        witnesses = bounded_useful(pda, 5, 10)
        assert witnesses & exact_useless(pda) == frozenset(), seed


def test_convergence_to_exact_complement():
    recorded = []
    for seed in range(20):
        pda = random_pda(seed, max_states=3, max_trans=6, gamma_size=2)
        target = frozenset(t.id for t in pda.transitions) - exact_useless(pda)
        for h, m in [(2, 4), (4, 8), (6, 14), (8, 22), (10, 32)]:
            if bounded_useful(pda, h, m) == target:
                recorded.append((seed, h, m))
                break
        else:
            pytest.fail(f"no bound pair reached the exact useful set for seed {seed}")
    assert len(recorded) == 20


def test_grammar_language_fidelity():
    for seed in range(8):
        pda = random_pda(seed, max_states=3, max_trans=5, gamma_size=2)
        grammar, _ = pda_to_grammar(npda_for(pda))
        derived = bounded_derivations(grammar, 3)
        accepted = bounded_language(pda, 3, 8, 40)
        assert derived == accepted, seed


def test_bounded_derivations_simple():
    g = make_grammar([("S", ("a", "S")), ("S", ())])
    assert bounded_derivations(g, 2) == {(), ("a",), ("a", "a")}


def test_bounded_fired_sees_all_reachable(example1):
    p0 = augment(example1)
    start = Configuration(p0.initial, (BOTTOM,))
    fired = bounded_fired(p0, start, 5)
    assert {"t1", "t2", "t3", "t4", "t5", "t6", "t7"} <= fired
