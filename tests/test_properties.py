"""Cross-cutting invariants checked over seeded random corpora."""

import random

from pdaprune import (
    Configuration,
    analyze,
    augment,
    bounded_useful,
    cfg_to_pda,
    compute_s,
    parse_grammar,
    prune,
    random_pda,
    run_backward,
    run_forward,
)
from pdaprune.augment import BOTTOM

from .conftest import GRAMMAR_DOCS, corpus, nfa_accepted_configs, nfa_states, shuffled_transitions
from .reference import (
    closure_row,
    bounded_fired,
    bounded_language,
    bounded_reachable,
    naive_s,
    reference_backward,
    scratch_backward,
    scratch_forward,
    unique_gamma_path,
)


def forward_of(pda):
    p0 = augment(pda)
    return p0, run_forward(p0, BOTTOM)


def test_path_heads_spell_reversed_push_strings():
    for pda in corpus(40):
        p0, fwd = forward_of(pda)
        for t in p0.transitions:
            if t.id in fwd.u1:
                continue
            labels, end = unique_gamma_path(fwd.nfa, fwd.path_head[t.id])
            assert labels == tuple(reversed(t.push)), t
            assert (end,) == nfa_states(fwd.nfa, t.target), t


def test_compute_s_matches_bruteforce_on_corpus():
    for pda in corpus(30):
        p0, fwd = forward_of(pda)
        for t in p0.transitions:
            (q,) = nfa_states(fwd.nfa, t.source)
            got = compute_s(fwd.nfa, q, t.pop, fwd.closure)
            assert got == naive_s(fwd.nfa, q, t.pop), (pda, t)


def test_closure_matches_scratch_on_corpus():
    for pda in corpus(30):
        _, fwd = forward_of(pda)
        for s in fwd.nfa.states:
            assert closure_row(fwd.closure.to, s) == scratch_backward(fwd.nfa, s)
            assert closure_row(fwd.closure.fro, s) == scratch_forward(fwd.nfa, s)


def test_closure_flag_equivalent_on_corpus(brute_force_s):
    for pda in corpus(40):
        a = analyze(pda)
        with brute_force_s() as calls:
            b = analyze(pda)
        assert a == b, pda
    assert len(calls) > 0


def test_forward_order_independence():
    for i, pda in enumerate(corpus(30)):
        base = analyze(pda)
        for k in range(3):
            permuted = shuffled_transitions(pda, seed=1000 * i + k)
            got = analyze(permuted)
            assert got.unreachable == base.unreachable, (pda, k)
            assert got.dead == base.dead, (pda, k)


def test_readers_leave_closure_rows_and_ssets_untouched():
    """compute_s reads closure rows in place and ssets are the sets forward
    built, so no later reader may change either."""
    pdas = corpus(60) + [cfg_to_pda(parse_grammar(g)) for g in GRAMMAR_DOCS]
    for i, pda in enumerate(pdas):
        _, fwd = forward_of(pda)
        closure = fwd.closure

        def snapshot():
            return (
                {s: frozenset(row) for s, row in closure.to.items()},
                {s: frozenset(row) for s, row in closure.fro.items()},
                {key: frozenset(s) for key, s in fwd.ssets.items()},
            )

        before = snapshot()
        for q, pop in fwd.ssets:
            compute_s(fwd.nfa, q, pop, closure)
        rng = random.Random(i)
        for pick in (None, lambda pending: 0, lambda pending: rng.randrange(len(pending))):
            run_backward(fwd, pick=pick)
        assert snapshot() == before, pda


def test_backward_processes_each_eps_edge_once():
    for pda in corpus(40):
        _, fwd = forward_of(pda)
        result = run_backward(fwd)
        assert result.iterations <= len(fwd.nfa.eps_edges), pda


def unreachable_by_search(p0, u1):
    """Explicitly unreached P0 transitions, escalating the stack cap until
    the search agrees with the claimed unreachable set or clearly refutes it."""
    start = Configuration(p0.initial, (BOTTOM,))
    all_ids = {t.id for t in p0.transitions}
    for cap in (8, 12, 16):
        fired = bounded_fired(p0, start, cap)
        assert not (u1 & fired), "claimed-unreachable transition fired"
        unreached = all_ids - fired
        if unreached == u1:
            return unreached
    return unreached


def test_unreachable_set_matches_explicit_search():
    for pda in corpus(50):
        p0, fwd = forward_of(pda)
        assert unreachable_by_search(p0, set(fwd.u1)) == set(fwd.u1), pda


def test_summary_accepts_exactly_the_reachable_stacks():
    for pda in corpus(25, max_states=4, max_trans=8, gamma_size=2):
        p0, fwd = forward_of(pda)
        start = Configuration(p0.initial, (BOTTOM,))
        for h in range(4):
            explicit = {
                (c.state, c.stack)
                for c in bounded_reachable(p0, start, h + 6)
                if len(c.stack) <= h
            }
            claimed = {
                (state, stack)
                for state, stack in nfa_accepted_configs(fwd.nfa, h)
            }
            assert explicit == claimed, (pda, h)


def test_prune_language_preserved_on_corpus():
    for pda in corpus(40):
        report = analyze(pda)
        pruned = prune(pda, report)
        before = bounded_language(pda, 4, 5, 14)
        after = bounded_language(pruned, 4, 5, 14)
        assert before == after, pda


def test_bounded_witnesses_always_classified_useful():
    for pda in corpus(40):
        report = analyze(pda)
        for h, m in [(2, 4), (4, 9)]:
            assert bounded_useful(pda, h, m) <= report.useful, (pda, h, m)


def test_backward_engine_matches_reference(golden, example1_p0_restricted):
    """The indexed fast path inside run_backward computes the same set as a
    naive loop over unique_gamma_path and scan_eps_on_paths."""
    assert run_backward(golden).u2 == reference_backward(golden)
    for pda in corpus(60):
        _, fwd = forward_of(pda)
        assert run_backward(fwd).u2 == reference_backward(fwd), pda


def test_backward_engine_matches_reference_on_dense_instance():
    """A dense machine whose backward run leaves some epsilon edges unqueued,
    so the live-source bookkeeping must skip sources without losing edges."""
    pda = random_pda(2025, max_states=19, max_trans=120, gamma_size=4, final_prob=0.1)
    _, fwd = forward_of(pda)
    expected = reference_backward(fwd)
    default = run_backward(fwd)
    assert not default.empty_language
    assert default.iterations < len(fwd.nfa.eps_edges)
    rng = random.Random(2025)
    for pick in (
        None,
        lambda pending: 0,
        lambda pending: rng.randrange(len(pending)),
    ):
        result = run_backward(fwd, pick=pick)
        assert result.u2 == expected
        assert result.iterations == default.iterations
