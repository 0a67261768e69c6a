from pdaprune import analyze, augment, validate
from pdaprune.augment import BOTTOM, DRAIN, FINAL

from .conftest import corpus, make_pda, renamed


def assert_faults_only_added_names(p0):
    """``validate`` faults P0 only for the ``#`` names ``augment`` adds:
    no duplicate, unknown or otherwise invalid name."""
    for diag in validate(p0):
        kind, name = diag.rsplit(": ", 1)
        assert kind.startswith("invalid ") and "#" in name, diag


def test_augment_example1(example1):
    p0 = augment(example1)
    assert_faults_only_added_names(p0)
    assert p0.finals == {FINAL}
    assert BOTTOM not in example1.stack_alphabet
    assert DRAIN not in example1.states
    assert FINAL not in example1.states
    # Originals first and unchanged, then the synthetic block.
    assert p0.transitions[: len(example1.transitions)] == example1.transitions
    synth = p0.transitions[len(example1.transitions) :]
    assert all("#" in t.id for t in synth)
    expected = [
        ("q3", (), DRAIN),
        (DRAIN, ("a",), DRAIN),
        (DRAIN, ("b",), DRAIN),
        (DRAIN, ("c",), DRAIN),
        (DRAIN, ("d",), DRAIN),
        (DRAIN, (BOTTOM,), FINAL),
    ]
    assert [(t.source, t.pop, t.target) for t in synth] == expected
    assert all(t.push == () and t.input is None for t in synth)


def test_augment_empty_finals():
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", [])
    p0 = augment(pda)
    # No way into the drain state, only the drain loop and the exit.
    sources = {t.source for t in p0.transitions if "#" in t.id}
    assert sources == {DRAIN}


def test_augment_initial_final():
    pda = make_pda(["q0"], [], ["a"], [], "q0", ["q0"])
    p0 = augment(pda)
    assert any(
        t.source == "q0" and t.target == DRAIN and t.pop == () and t.push == ()
        for t in p0.transitions
    )


def test_augment_partitions_ids(example1):
    p0 = augment(example1)
    p0_ids = {t.id for t in p0.transitions}
    synthetic = {t.id for t in p0.transitions[len(example1.transitions) :]}
    originals = {tid for tid in p0_ids if tid not in synthetic}
    assert originals == {t.id for t in example1.transitions}
    assert originals | synthetic == p0_ids
    assert not originals & synthetic


def test_augment_bottom_marker_occurs_once(example1):
    p0 = augment(example1)
    uses = [t for t in p0.transitions if BOTTOM in t.pop or BOTTOM in t.push]
    assert len(uses) == 1
    assert uses[0].source == DRAIN and uses[0].target == FINAL


def test_augment_fresh_names_dodge_collisions():
    pda = make_pda(
        ["q0", "__qe", "__qf"],
        [],
        ["__bot"],
        [("__aug0", "q0", None, [], ["__bot"], "q0")],
        "q0",
        ["q0"],
    )
    p0 = augment(pda)
    assert_faults_only_added_names(p0)
    assert BOTTOM not in pda.stack_alphabet
    assert not {DRAIN, FINAL} & set(pda.states)
    assert "__aug0" not in {t.id for t in p0.transitions[len(pda.transitions) :]}


def with_old_fresh_names(pda):
    """``pda`` renamed into the names ``augment`` once had to search past:
    states ``__qe``, ``__qf``, ``__qe1``, ``__qf1``, ..., stack symbols
    ``__bot``, ``__bot1``, ... and ids ``__aug0``, ``__aug1``, ....  Returns
    the copy and the name map."""

    def suffix(i):
        return str(i) if i else ""

    names = {q: f"__q{'ef'[i % 2]}{suffix(i // 2)}" for i, q in enumerate(pda.states)}
    names |= {a: f"__bot{suffix(i)}" for i, a in enumerate(pda.stack_alphabet)}
    names |= {t.id: f"__aug{i}" for i, t in enumerate(pda.transitions)}
    return renamed(pda, names), names


def test_augment_adds_only_marked_names(example1):
    for pda in [example1] + corpus(40):
        p0 = augment(pda)
        n, k = len(pda.transitions), len(pda.stack_alphabet)
        # The input comes first and unchanged.
        assert p0.states[: len(pda.states)] == pda.states, pda
        assert p0.stack_alphabet[:k] == pda.stack_alphabet, pda
        assert p0.transitions[:n] == pda.transitions, pda
        assert (p0.input_alphabet, p0.initial) == (pda.input_alphabet, pda.initial), pda
        # Every added name carries '#', and '#' marks exactly the added ids.
        added = p0.states[len(pda.states) :] + p0.stack_alphabet[k:]
        added += tuple(t.id for t in p0.transitions[n:])
        assert added and all("#" in name for name in added), pda
        assert p0.transitions[n:] == tuple(t for t in p0.transitions if "#" in t.id), pda
        # An input named like the old fresh names is analysed as any other.
        copy, names = with_old_fresh_names(pda)
        report, other = analyze(pda), analyze(copy)
        for part in ("unreachable", "dead", "useful"):
            assert {names[tid] for tid in getattr(report, part)} == getattr(other, part), pda
        assert (report.empty_language, report.stats) == (other.empty_language, other.stats)

