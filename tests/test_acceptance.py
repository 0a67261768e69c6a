"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Corpora are seeded and deterministic; every expected value is
either pinned from the worked example or cross-checked between
independent implementations.
"""

import random
import time

import pytest

from pdaprune import (
    M0,
    Configuration,
    analyze,
    augment,
    exact_unreachable,
    exact_useless,
    cfg_to_pda,
    grammar_useless,
    prune,
    random_pda,
    run_backward,
    run_forward,
    run_pipeline,
)
from pdaprune.augment import BOTTOM

from .conftest import corpus, nfa_accepted_configs, nfa_states, random_grammar, shuffled_transitions
from .reference import bounded_language, bounded_reachable, nfa_shape_violations


def passline(n, message):
    print(f"\nACCEPTANCE {n}: PASS - {message}")


@pytest.fixture(scope="module")
def corpus500():
    return corpus(500)


@pytest.fixture(scope="module")
def pipelines500(corpus500):
    return [run_pipeline(pda) for pda in corpus500]


@pytest.fixture(scope="module")
def prop1_data():
    """Suite-4 corpus with forward results, for criteria 4 and 5."""
    pdas = corpus(100, start_seed=9000, max_states=4, max_trans=8, gamma_size=2)
    out = []
    for pda in pdas:
        p0 = augment(pda)
        out.append((pda, p0, run_forward(p0, BOTTOM)))
    return out


def test_criterion_1_worked_example(example1):
    start = time.perf_counter()
    report = analyze(example1)
    elapsed = time.perf_counter() - start
    assert report.unreachable == frozenset()
    assert report.useless == {"t3"}
    assert report.dead == {"t3"}
    assert elapsed < 1.0
    passline(1, f"unreachable empty, useless == {{t3}}, {elapsed * 1000:.1f} ms")


def test_criterion_2_nfa_golden(golden):
    nfa = golden.nfa
    assert golden.u1 == frozenset()

    # Intermediates are matched by their unique gamma path to a final state.
    q0, q1, q2, q3, qf = nfa_states(nfa, "q0 q1 q2 q3 qf")
    n1 = nfa.gamma_into["a"][q1]
    n2 = nfa.gamma_into["b"][q1]
    n4 = nfa.gamma_into["d"][q2]
    n3 = nfa.gamma_into["a"][n4]
    n5 = nfa.gamma_into["c"][q2]
    assert not any(nfa.is_final(s) for s in (n1, n2, n3, n4, n5))
    assert len({n1, n2, n3, n4, n5}) == 5
    gamma = set(nfa.gamma_edges())
    assert gamma == {
        (M0, "b0", q0),
        (n1, "a", q1),
        (n2, "b", q1),
        (n3, "a", n4),
        (n4, "d", q2),
        (n5, "c", q2),
    }
    assert nfa.eps_edges == {
        (q0, n1),
        (q0, n2),
        (q0, n3),
        (q1, n5),
        (q1, n4),
        (n1, q3),
        (n2, q3),
        (M0, qf),
    }
    assert len(gamma) == 6 and len(nfa.eps_edges) == 8
    passline(2, "summary NFA matches the expected shape (6 gamma + 8 eps edges)")


def test_criterion_3_oracle_equivalence(corpus500, pipelines500):
    start = time.perf_counter()
    mismatches = []
    for seed, (pda, pipeline) in enumerate(zip(corpus500, pipelines500)):
        report = pipeline.report
        expected = exact_useless(pda)
        # With every state final, a transition is useless exactly when no
        # run fires it, so the exact oracle splits the useless set too.
        unreachable = exact_unreachable(pda)
        if (report.useless, report.unreachable, report.dead) != (
            expected, unreachable, expected - unreachable
        ):
            mismatches.append((seed, report.unreachable, report.dead, expected, unreachable))
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 60.0
    passline(3, f"500/500 pdas agree with the exact oracle and its split in {elapsed:.1f} s")


def test_criterion_4_bounded_configuration_equivalence(prop1_data):
    checked = 0
    for pda, p0, fwd in prop1_data:
        start = Configuration(p0.initial, (BOTTOM,))
        for h in range(6):
            claimed = nfa_accepted_configs(fwd.nfa, h)
            for slack in (6, 10):
                reach = bounded_reachable(p0, start, h + slack)
                explicit = {
                    (c.state, c.stack) for c in reach if len(c.stack) <= h
                }
                if explicit == claimed:
                    break
            assert explicit == claimed, (pda, h)
            checked += 1
    assert checked == 600
    passline(4, f"reachable configurations match at every height <= 5 for 100 pdas")


def test_criterion_5_structural_invariants(
    pipelines500, prop1_data, example1, golden
):
    nfas = [p.fwd.nfa for p in pipelines500]
    nfas.extend(fwd.nfa for _, _, fwd in prop1_data)
    nfas.append(run_pipeline(example1).fwd.nfa)
    nfas.append(golden.nfa)
    violations = []
    for nfa in nfas:
        violations.extend(nfa_shape_violations(nfa))
    assert violations == []
    passline(5, f"no shape or reachability violations across {len(nfas)} NFAs")


def test_criterion_6_idempotence_and_language_preservation(corpus500, pipelines500):
    for seed, (pda, pipeline) in enumerate(zip(corpus500, pipelines500)):
        pruned = prune(pda, pipeline.report)
        assert analyze(pruned).useless == frozenset(), seed
        before = bounded_language(pda, 8, 6, 20)
        after = bounded_language(pruned, 8, 6, 20)
        assert before == after, seed
    passline(6, "pruning is idempotent and preserves the bounded language, 500 pdas")


def test_criterion_7_grammar_cross_check():
    for seed in range(100):
        grammar = random_grammar(seed)
        useless_prods = grammar_useless(grammar)
        report = analyze(cfg_to_pda(grammar))
        for i in range(len(grammar.productions)):
            assert (i in useless_prods) == (f"prod{i}" in report.useless), (seed, i)
    passline(7, "production and transition verdicts agree on 100 grammars")


def test_criterion_8_performance_and_optimization_correctness(brute_force_s):
    pda = random_pda(
        2024, max_states=50, max_trans=320, max_pop_push=2, gamma_size=4, final_prob=0.1
    )
    assert len(pda.states) >= 50 and len(pda.transitions) >= 300
    start = time.perf_counter()
    report = analyze(pda)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with brute_force_s() as calls:
        unoptimized = analyze(pda)
    assert len(calls) > 0
    assert unoptimized == report
    passline(
        8,
        f"{len(pda.transitions)} transitions / {len(pda.states)} states analyzed in "
        f"{elapsed:.2f} s; brute-force S-sets in place of compute_s give identical results "
        f"(nfa: {report.stats.nfa_states} states, {report.stats.eps_edges} eps edges)",
    )


def test_criterion_9_order_independence(corpus500, pipelines500):
    rng = random.Random(99)
    for seed in range(50):
        pda = corpus500[seed]
        base = pipelines500[seed]
        for k in range(2):
            permuted = shuffled_transitions(pda, seed=7000 + 10 * seed + k)
            assert analyze(permuted).useless == base.report.useless, (seed, k)
        default = run_backward(base.fwd)
        fifo = run_backward(base.fwd, pick=lambda p: 0)
        rnd = run_backward(base.fwd, pick=lambda p: rng.randrange(len(p)))
        assert default.u2 == fifo.u2 == rnd.u2, seed
        assert default.iterations == fifo.iterations == rnd.iterations, seed
    passline(9, "useless sets invariant under transition and worklist reordering, 50 pdas")
