from pdaprune import Configuration, augment, validate

from .conftest import make_pda
from .reference import step, support_initial_stack


def test_augment_example1(example1):
    aug = augment(example1)
    p0 = aug.p0
    assert validate(p0) == []
    assert p0.finals == {aug.final_state}
    assert aug.bottom_marker not in example1.stack_alphabet
    assert aug.drain_state not in example1.states
    assert aug.final_state not in example1.states
    # Originals first and unchanged, then the synthetic block.
    assert p0.transitions[: len(example1.transitions)] == example1.transitions
    synth = p0.transitions[len(example1.transitions) :]
    assert all(t.id in aug.synthetic_ids for t in synth)
    expected = [
        ("q3", (), aug.drain_state),
        (aug.drain_state, ("a",), aug.drain_state),
        (aug.drain_state, ("b",), aug.drain_state),
        (aug.drain_state, ("c",), aug.drain_state),
        (aug.drain_state, ("d",), aug.drain_state),
        (aug.drain_state, (aug.bottom_marker,), aug.final_state),
    ]
    assert [(t.source, t.pop, t.target) for t in synth] == expected
    assert all(t.push == () and t.input is None for t in synth)


def test_augment_empty_finals():
    pda = make_pda(["q0"], [], ["a"], [("t0", "q0", None, "", "a", "q0")], "q0", [])
    aug = augment(pda)
    # No way into the drain state, only the drain loop and the exit.
    sources = {t.source for t in aug.p0.transitions if t.id in aug.synthetic_ids}
    assert sources == {aug.drain_state}


def test_augment_initial_final():
    pda = make_pda(["q0"], [], ["a"], [], "q0", ["q0"])
    aug = augment(pda)
    assert any(
        t.source == "q0" and t.target == aug.drain_state and t.pop == () and t.push == ()
        for t in aug.p0.transitions
    )


def test_augment_partitions_ids(example1):
    aug = augment(example1)
    p0_ids = {t.id for t in aug.p0.transitions}
    originals = {tid for tid in p0_ids if tid not in aug.synthetic_ids}
    assert originals == {t.id for t in example1.transitions}
    assert originals | aug.synthetic_ids == p0_ids
    assert not originals & aug.synthetic_ids


def test_augment_bottom_marker_occurs_once(example1):
    aug = augment(example1)
    uses = [
        t
        for t in aug.p0.transitions
        if aug.bottom_marker in t.pop or aug.bottom_marker in t.push
    ]
    assert len(uses) == 1
    assert uses[0].source == aug.drain_state and uses[0].target == aug.final_state


def test_augment_fresh_names_dodge_collisions():
    pda = make_pda(
        ["q0", "__qe", "__qf"],
        [],
        ["__bot"],
        [("__aug0", "q0", None, [], ["__bot"], "q0")],
        "q0",
        ["q0"],
    )
    aug = augment(pda)
    assert validate(aug.p0) == []
    assert aug.bottom_marker != "__bot"
    assert aug.drain_state not in {"__qe", "__qf", "q0"}
    assert "__aug0" not in aug.synthetic_ids


def test_support_initial_stack_identity(example1):
    assert support_initial_stack(example1, ()) is example1


def test_support_initial_stack_single(example1):
    wrapped = support_initial_stack(example1, ("a",))
    assert validate(wrapped) == []
    seed = [t for t in wrapped.transitions if t.source == wrapped.initial]
    assert len(seed) == 1
    assert seed[0].pop == () and seed[0].push == ("a",) and seed[0].target == "q0"


def test_support_initial_stack_via_step():
    pda = make_pda(["q0"], [], ["a", "b"], [], "q0", ["q0"])
    wrapped = support_initial_stack(pda, ("a", "b"))
    succ = step(wrapped, Configuration(wrapped.initial, ()))
    assert {cfg for _, cfg in succ} == {Configuration("q0", ("a", "b"))}
