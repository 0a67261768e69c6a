from dataclasses import replace

import pytest

from pdaprune import (
    InvalidPdaError,
    analyze,
    bounded_useful,
    exact_useless,
    prune,
)

from .conftest import make_pda
from .reference import bounded_language


def test_analyze_example1(example1):
    report = analyze(example1)
    assert report.unreachable == frozenset()
    assert report.dead == {"t3"}
    assert report.useful == {"t1", "t2", "t4", "t5", "t6", "t7"}
    assert not report.empty_language


def test_analyze_empty_finals():
    pda = make_pda(
        ["q0", "q1"],
        [],
        ["a"],
        [("t0", "q0", None, "", "a", "q1"), ("t1", "q1", None, "a", "", "q0")],
        "q0",
        [],
    )
    report = analyze(pda)
    assert report.empty_language
    assert report.useful == frozenset()
    assert report.unreachable | report.dead == {"t0", "t1"}


def test_analyze_reachable_but_dead():
    # The push is reachable but acceptance only happens before it fires.
    pda = make_pda(
        ["q0", "q1"], [], ["a"], [("t0", "q0", None, "", "a", "q1")], "q0", ["q0"]
    )
    report = analyze(pda)
    assert report.unreachable == frozenset()
    assert report.dead == {"t0"}
    assert exact_useless(pda) == {"t0"}


def test_analyze_rejects_invalid():
    bad = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q9")], "q0", [])
    with pytest.raises(InvalidPdaError) as excinfo:
        analyze(bad)
    assert str(excinfo.value) == "unknown state: t0 target 'q9'"


def test_invalid_pda_error_message_joins_diagnostics():
    err = InvalidPdaError(["duplicate id: t0", "unknown state: initial 'q9'"])
    assert str(err) == "duplicate id: t0; unknown state: initial 'q9'"
    assert err.diagnostics == ["duplicate id: t0", "unknown state: initial 'q9'"]


def test_analyze_deterministic(example1):
    assert analyze(example1) == analyze(example1)


def test_analyze_fans_out_input_duplicates(example1):
    import dataclasses

    from pdaprune import PdaTransition

    # Same shapes as t3 and t6 but reading an input symbol: each gets its
    # twin's verdict, and neither adds NFA states, edges or work.
    extra = (
        PdaTransition("t3x", "q0", "x", (), ("d", "a"), "q2"),
        PdaTransition("t6x", "q2", "x", ("c", "a"), (), "q3"),
    )
    pda = dataclasses.replace(
        example1,
        input_alphabet=("x",),
        transitions=example1.transitions + extra,
    )
    report = analyze(pda)
    assert report.dead == {"t3", "t3x"}
    assert "t6x" in report.useful
    assert report.stats == analyze(example1).stats


def test_prune_example1(example1):
    report = analyze(example1)
    pruned = prune(example1, report)
    assert tuple(t.id for t in pruned.transitions) == ("t1", "t2", "t4", "t5", "t6", "t7")
    # Only the transitions change.
    assert replace(pruned, transitions=example1.transitions) == example1


def test_prune_identity_when_all_useful(example1):
    report = analyze(example1)
    once = prune(example1, report)
    report2 = analyze(once)
    assert report2.useless == frozenset()
    assert prune(once, report2) == once


def test_prune_empty_language_drops_everything():
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", [])
    report = analyze(pda)
    assert report.empty_language
    assert prune(pda, report).transitions == ()


def test_prune_rejects_mismatched_report(example1):
    pda2 = make_pda(["q0"], [], ["a"], [("z", "q0", None, "", "a", "q0")], "q0", [])
    with pytest.raises(ValueError):
        prune(pda2, analyze(example1))


def test_prune_orphan_state_removal(example1):
    report = analyze(example1)
    pruned = prune(example1, report, drop_orphan_states=True)
    # t3 was the only edge into nothing; every state is still touched here.
    assert pruned.states == example1.states
    lonely = make_pda(
        ["q0", "q1", "q2"], [], ["a"], [("t0", "q1", None, "", "a", "q2")], "q0", ["q0"]
    )
    rep = analyze(lonely)
    assert rep.useless == {"t0"}
    slim = prune(lonely, rep, drop_orphan_states=True)
    assert slim.states == ("q0",)


def test_prune_orphan_states_keep_sources_and_drop_untouched_finals():
    """A state that only a kept transition's source touches stays; a final
    state that no kept transition touches leaves the states and the finals."""
    pda = make_pda(
        ["q0", "q1", "q2", "q3"],
        [],
        [],
        [("t0", "q0", None, "", "", "q2"), ("t1", "q1", None, "", "", "q2")],
        "q0",
        ["q2", "q3"],
    )
    report = analyze(pda)
    assert (report.unreachable, report.useful) == ({"t1"}, {"t0"})
    slim = prune(pda, report, drop_orphan_states=True)
    assert (slim.states, slim.finals) == (("q0", "q2"), {"q2"})
    # A report may keep any transition; one that keeps t1 keeps its source.
    keep_all = replace(report, unreachable=frozenset(), useful=frozenset({"t0", "t1"}))
    slim = prune(pda, keep_all, drop_orphan_states=True)
    assert (slim.states, slim.finals) == (("q0", "q1", "q2"), {"q2"})


def test_language_preserved_example1(example1):
    report = analyze(example1)
    pruned = prune(example1, report)
    before = bounded_language(example1, 4, 6, 12)
    after = bounded_language(pruned, 4, 6, 12)
    assert before == after
    assert before == {()}


def test_bounded_witnesses_classified_useful(example1):
    report = analyze(example1)
    witnesses = bounded_useful(example1, 4, 8)
    assert witnesses <= report.useful


def test_stats_shape(example1):
    stats = analyze(example1).stats
    assert stats.nfa_states > 0
    assert stats.gamma_edges > 0
    assert stats.forward_passes >= 2
    assert stats.backward_iterations > 0
